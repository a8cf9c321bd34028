#pragma once
// A response model driven by per-task benefit functions.
//
// In the Figure 3 simulation the benefit G_i(r) *is* the probability that
// the server answers task tau_i within r. This model samples responses from
// exactly that distribution (per request stream), so the simulated count of
// timely results converges to the analytic expectation sum_i G_i(R_i).

#include <cstdint>
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
///
/// The draw works in the integer domain of Rng::uniform(), which is
/// k * 2^-53 for k = next() >> 11. Each breakpoint value v_j is stored as
/// the threshold t_j = floor(v_j * 2^53), and v_j < k * 2^-53 exactly when
/// t_j < k, so the integer search selects the breakpoint the floating
/// comparison would. A guide table (Chen & Asau) per stream splits the k
/// range into 2^kGuideBits buckets and holds, for bucket b, the first
/// breakpoint whose threshold is not below the bucket's lowest k; the
/// search starts there and steps past the few thresholds inside the bucket.
class BenefitDrivenResponse final : public server::ResponseModel {
 public:
  static constexpr int kGuideBits = 6;

  explicit BenefitDrivenResponse(std::vector<core::BenefitFunction> per_stream);

  Duration sample(const server::Request& req, Rng& rng) override;
  void sample_n(const server::Request& req, std::span<Rng> rngs,
                std::span<Duration> out) override;
  bool is_stateless() const override { return true; }
  std::unique_ptr<server::ResponseModel> clone() const override {
    return std::make_unique<BenefitDrivenResponse>(*this);
  }

  /// The response that the 53-bit draw k (uniform() == k * 2^-53) selects
  /// on a known-valid stream. A bucket rarely holds more than one of a
  /// curve's thresholds, so the first step is taken branch-free and the
  /// loop after it almost never runs, nor mispredicts.
  Duration response_at(std::size_t stream, std::uint64_t k) const {
    std::size_t j = guide_[(stream << kGuideBits) | (k >> kGuideShift)];
    j += static_cast<std::size_t>(thresholds_[j] < k);
    while (thresholds_[j] < k) ++j;
    return responses_[j];
  }

  /// The scalar draw with the virtual dispatch and stream lookup peeled
  /// off: exactly one next() per call, as uniform() makes;
  /// sample()/sample_n() delegate here so both share one definition.
  Duration sample_stream(std::size_t stream, Rng& rng) const {
    return response_at(stream, rng.next() >> 11);
  }

 private:
  static constexpr int kGuideShift = 53 - kGuideBits;

  std::size_t num_streams() const { return guide_.size() >> kGuideBits; }

  /// Stream i owns count_i + 1 consecutive slots of thresholds_ and
  /// responses_: its breakpoints j >= 1 in order, then a sentinel threshold
  /// above every k paired with kNoResponse, the draw past the last
  /// breakpoint. guide_[(i << kGuideBits) | b] is a slot of stream i.
  std::vector<std::uint32_t> guide_;
  std::vector<std::uint64_t> thresholds_;
  std::vector<Duration> responses_;
};

}  // namespace rt::sim
