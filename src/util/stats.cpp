#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rt {

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  // m2_ is non-negative in exact arithmetic, but the merge() formula can
  // round it a hair below zero for near-constant streams; clamp so stddev
  // never goes NaN through sqrt of a negative.
  return std::max(0.0, m2_) / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double delta = o.mean_ - mean_;
  const auto n = static_cast<double>(n_ + o.n_);
  m2_ += o.m2_ + delta * delta * static_cast<double>(n_) *
                     static_cast<double>(o.n_) / n;
  mean_ = (mean_ * static_cast<double>(n_) + o.mean_ * static_cast<double>(o.n_)) / n;
  sum_ += o.sum_;
  n_ += o.n_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

double DurationStats::mean() const {
  if (n_ == 0) return 0.0;
  return static_cast<double>(sum_) / (static_cast<double>(n_) * 1e6);
}

double DurationStats::variance() const {
  if (n_ < 2) return 0.0;
  // n * sum of squares - sum^2 = n (n-1) s^2, exact and never negative.
  const auto n = static_cast<__int128>(n_);
  const __int128 num = n * sum_sq_ - static_cast<__int128>(sum_) * sum_;
  return static_cast<double>(num) /
         (static_cast<double>(n_) * static_cast<double>(n_ - 1) * 1e12);
}

void DurationStats::merge(const DurationStats& o) {
  n_ += o.n_;
  sum_ += o.sum_;
  sum_sq_ += o.sum_sq_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile: empty input");
  if (!(p >= 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile: p out of range");
  }
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples.front();
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

}  // namespace rt
