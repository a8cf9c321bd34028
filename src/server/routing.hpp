#pragma once
// Multi-component routing: several timing-unreliable components in one
// system (e.g. a local GPU plus a remote box), with a per-task assignment.
//
// The paper abstracts "the server" as a single component; nothing in the
// mechanism requires that, so this wrapper routes each request by its
// stream id (the simulator sets stream_id = task index) to one of several
// inner response models.

#include <memory>
#include <vector>

#include "server/response_model.hpp"

namespace rt::server {

class RoutingResponse final : public ResponseModel {
 public:
  /// `routes` owns the component models; `route_of_stream[s]` picks the
  /// component for stream s. Throws when routes is empty, the mapping is
  /// empty, or a mapping entry is out of range.
  RoutingResponse(std::vector<std::unique_ptr<ResponseModel>> routes,
                  std::vector<std::size_t> route_of_stream);

  Duration sample(const Request& req, Rng& rng) override;
  void sample_n(const Request& req, std::span<Rng> rngs,
                std::span<Duration> out) override;
  bool is_stateless() const override;
  void reset() override;
  std::unique_ptr<ResponseModel> clone() const override;

  /// Throws std::out_of_range for a stream past the mapping (an unknown
  /// task), as BenefitDrivenResponse does.
  [[nodiscard]] std::size_t route_for(std::size_t stream) const;

 private:
  std::vector<std::unique_ptr<ResponseModel>> routes_;
  std::vector<std::size_t> route_of_stream_;
};

}  // namespace rt::server
