#pragma once
// Streaming and batch statistics used by the estimator and the benches.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

namespace rt {

/// Numerically stable streaming accumulator (Welford).
class RunningStats {
 public:
  /// Inline: every engine calls it once per offload.
  void add(double x) {
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merge another accumulator (parallel Welford).
  void merge(const RunningStats& o);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Percentile with linear interpolation between closest ranks
/// (the "exclusive" definition used by numpy's default).
/// `p` in [0, 100]. The input is copied and sorted; throws on empty input
/// and on a `p` outside [0, 100] or NaN.
double percentile(std::vector<double> samples, double p);

}  // namespace rt
