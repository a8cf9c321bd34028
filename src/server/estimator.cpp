#include "server/estimator.hpp"

#include <algorithm>
#include <stdexcept>

namespace rt::server {

Duration response_percentile(const std::vector<Duration>& samples, double p) {
  if (samples.empty()) {
    throw std::invalid_argument("response_percentile: empty input");
  }
  if (!(p >= 0.0 && p <= 100.0)) {
    throw std::invalid_argument("response_percentile: p out of range");
  }
  std::vector<Duration> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank percentile; kNoResponse sorts last so excessive drop rates
  // surface as an unusable (kNoResponse) estimate.
  const auto n = sorted.size();
  auto rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  return sorted[rank];
}

double success_probability(const std::vector<Duration>& samples, Duration r) {
  if (samples.empty()) {
    throw std::invalid_argument("success_probability: empty input");
  }
  std::size_t ok = 0;
  for (const Duration s : samples) {
    if (s != kNoResponse && s <= r) ++ok;
  }
  return static_cast<double>(ok) / static_cast<double>(samples.size());
}

std::vector<MeasuredPoint> build_success_curve(const std::vector<Duration>& samples,
                                               const std::vector<double>& percentiles) {
  std::vector<MeasuredPoint> curve;
  curve.reserve(percentiles.size());
  for (const double p : percentiles) {
    const Duration r = response_percentile(samples, p);
    if (r == kNoResponse) continue;
    MeasuredPoint pt;
    pt.response_time = r;
    pt.success_probability = success_probability(samples, r);
    // Keep the curve strictly increasing in response time.
    if (!curve.empty() && curve.back().response_time >= r) {
      curve.back().success_probability =
          std::max(curve.back().success_probability, pt.success_probability);
      continue;
    }
    curve.push_back(pt);
  }
  return curve;
}

}  // namespace rt::server
