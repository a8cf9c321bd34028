#include "sim/benefit_response.hpp"

#include <stdexcept>

namespace rt::sim {

BenefitDrivenResponse::BenefitDrivenResponse(
    std::vector<core::BenefitFunction> per_stream)
    : per_stream_(std::move(per_stream)) {
  if (per_stream_.empty()) {
    throw std::invalid_argument("BenefitDrivenResponse: no streams");
  }
  for (const auto& g : per_stream_) {
    if (g.max_value() > 1.0 + 1e-12) {
      throw std::invalid_argument(
          "BenefitDrivenResponse: benefit values must be probabilities");
    }
    const std::vector<core::BenefitPoint>& points = g.points();
    streams_.push_back(Stream{values_.size(), points.size() - 1});
    for (std::size_t j = 1; j < points.size(); ++j) {
      values_.push_back(points[j].value);
      responses_.push_back(points[j].response_time);
    }
    responses_.push_back(server::kNoResponse);
  }
}

Duration BenefitDrivenResponse::sample(const server::Request& req, Rng& rng) {
  if (req.stream_id >= per_stream_.size()) {
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
  if (req.stream_id >= per_stream_.size()) {
    throw std::out_of_range("BenefitDrivenResponse: unknown stream");
  }
  for (std::size_t i = 0; i < rngs.size(); ++i) {
    out[i] = sample_stream(req.stream_id, rngs[i]);
  }
}

}  // namespace rt::sim
