#include "sim/benefit_response.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace rt::sim {

BenefitDrivenResponse::BenefitDrivenResponse(
    std::vector<core::BenefitFunction> per_stream) {
  if (per_stream.empty()) {
    throw std::invalid_argument("BenefitDrivenResponse: no streams");
  }
  for (const auto& g : per_stream) {
    if (g.max_value() > 1.0 + 1e-12) {
      throw std::invalid_argument(
          "BenefitDrivenResponse: benefit values must be probabilities");
    }
    const std::vector<core::BenefitPoint>& points = g.points();
    const std::size_t first = thresholds_.size();
    for (std::size_t j = 1; j < points.size(); ++j) {
      // Values are finite, >= 0 and at most 1 + 1e-12: the scaled value
      // is exact and its floor fits.
      thresholds_.push_back(static_cast<std::uint64_t>(
          std::floor(std::ldexp(points[j].value, 53))));
      responses_.push_back(points[j].response_time);
    }
    thresholds_.push_back(std::numeric_limits<std::uint64_t>::max());
    responses_.push_back(server::kNoResponse);
    if (thresholds_.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("BenefitDrivenResponse: too many breakpoints");
    }
    // Thresholds are non-decreasing, so bucket b's first slot is found by
    // one walk over the stream.
    std::size_t j = first;
    for (std::uint64_t b = 0; b < (1u << kGuideBits); ++b) {
      while (thresholds_[j] < (b << kGuideShift)) ++j;
      guide_.push_back(static_cast<std::uint32_t>(j));
    }
  }
}

Duration BenefitDrivenResponse::sample(const server::Request& req, Rng& rng) {
  if (req.stream_id >= num_streams()) {
    throw std::out_of_range("BenefitDrivenResponse: unknown stream");
  }
  return sample_stream(req.stream_id, rng);
}

void BenefitDrivenResponse::sample_n(const server::Request& req,
                                     std::span<Rng> rngs,
                                     std::span<Duration> out) {
  if (rngs.size() != out.size()) {
    throw std::invalid_argument("sample_n: rngs/out size mismatch");
  }
  if (req.stream_id >= num_streams()) {
    throw std::out_of_range("BenefitDrivenResponse: unknown stream");
  }
  for (std::size_t i = 0; i < rngs.size(); ++i) {
    out[i] = sample_stream(req.stream_id, rngs[i]);
  }
}

}  // namespace rt::sim
