#pragma once
// A response model driven by per-task benefit functions.
//
// In the Figure 3 simulation the benefit G_i(r) *is* the probability that
// the server answers task tau_i within r. This model samples responses from
// exactly that distribution (per request stream), so the simulated count of
// timely results converges to the analytic expectation sum_i G_i(R_i).

#include <vector>

#include "core/benefit.hpp"
#include "server/response_model.hpp"

namespace rt::sim {

/// Inverse-CDF sampler over the true benefit functions: for a uniform draw
/// u, the response is the smallest breakpoint r_j with G(r_j) >= u, or
/// kNoResponse when u exceeds the maximum probability (the tail where the
/// server never answers in any acceptable time).
///
/// Requires benefit values in [0, 1] (probabilities); the request's
/// stream_id selects the function.
class BenefitDrivenResponse final : public server::ResponseModel {
 public:
  explicit BenefitDrivenResponse(std::vector<core::BenefitFunction> per_stream);

  Duration sample(const server::Request& req, Rng& rng) override;
  void sample_n(const server::Request& req, std::span<Rng> rngs,
                std::span<Duration> out) override;
  bool is_stateless() const override { return true; }
  std::unique_ptr<server::ResponseModel> clone() const override {
    return std::make_unique<BenefitDrivenResponse>(per_stream_);
  }

  [[nodiscard]] std::size_t num_streams() const { return per_stream_.size(); }

  /// The scalar draw with the virtual dispatch and stream lookup peeled
  /// off: exactly one uniform() per call on a known-valid stream. The
  /// batch engine calls this directly in its inner loop; sample()/
  /// sample_n() delegate here so all paths share one definition. Values
  /// are non-decreasing (BenefitFunction validates it), so the first
  /// breakpoint j >= 1 with value >= u is 1 + #{j >= 1 : value_j < u}:
  /// a branch-free count instead of a walk with a data-dependent exit.
  Duration sample_stream(std::size_t stream, Rng& rng) const {
    const std::vector<core::BenefitPoint>& points = per_stream_[stream].points();
    const double u = rng.uniform();
    std::size_t j = 1;
    for (std::size_t k = 1; k < points.size(); ++k) {
      j += static_cast<std::size_t>(points[k].value < u);
    }
    return j < points.size() ? points[j].response_time : server::kNoResponse;
  }

 private:
  std::vector<core::BenefitFunction> per_stream_;
};

}  // namespace rt::sim
