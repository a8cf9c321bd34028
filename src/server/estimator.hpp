#pragma once
// Response-time estimation from measurements (one half of the paper's
// "Benefit and Response Time Estimator", Section 3.2).
//
// The timing-unreliable component cannot give worst-case guarantees, but it
// can be *measured*; the estimator turns response samples into (a) a
// percentile-based estimated worst-case response time r_{i,j} per
// configuration and (b) an empirical success-probability curve
// P[response <= r], which doubles as the benefit function when the benefit
// is "probability of a timely high-quality result".

#include <vector>

#include "server/response_model.hpp"
#include "util/time.hpp"

namespace rt::server {

/// Percentile (e.g. 90) of the finite samples. Samples equal to kNoResponse
/// count as infinitely slow: if more than (100-p)% of samples were dropped,
/// the estimate is kNoResponse. Throws on empty input or p outside [0,100]
/// (NaN included).
Duration response_percentile(const std::vector<Duration>& samples, double p);

/// Fraction of samples with response <= r (drops count as failures).
double success_probability(const std::vector<Duration>& samples, Duration r);

/// One discretized point of a measured benefit curve.
struct MeasuredPoint {
  Duration response_time;
  double success_probability;
};

/// Builds a monotone success-probability curve at the given percentiles
/// (sorted ascending). Percentile levels whose estimate is kNoResponse are
/// skipped.
std::vector<MeasuredPoint> build_success_curve(const std::vector<Duration>& samples,
                                               const std::vector<double>& percentiles);

}  // namespace rt::server
