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

  /// The scalar draw with the virtual dispatch and stream lookup peeled
  /// off: exactly one uniform() per call on a known-valid stream;
  /// sample()/sample_n() delegate here so both share one definition.
  /// Values are non-decreasing (BenefitFunction validates it), so the
  /// first breakpoint j >= 1 with value >= u is 1 + #{j >= 1 : value_j <
  /// u}: a branch-free count over the stream's packed values instead of a
  /// walk with a data-dependent exit.
  Duration sample_stream(std::size_t stream, Rng& rng) const {
    const Stream& s = streams_[stream];
    const double* values = values_.data() + s.first;
    const double u = rng.uniform();
    std::size_t j = 0;
    for (std::size_t k = 0; k < s.count; ++k) {
      j += static_cast<std::size_t>(values[k] < u);
    }
    return responses_[s.first + stream + j];
  }

 private:
  /// Stream i's breakpoints j >= 1 are values_[first + j - 1] and
  /// responses_[first + i + j - 1]; responses_[first + i + count] is
  /// kNoResponse, the draw past the last breakpoint.
  struct Stream {
    std::size_t first = 0;
    std::size_t count = 0;
  };

  std::vector<core::BenefitFunction> per_stream_;
  std::vector<Stream> streams_;
  std::vector<double> values_;
  std::vector<Duration> responses_;
};

}  // namespace rt::sim
