#pragma once
// Streaming and batch statistics: exact integer moments of the engines'
// response times, Welford for double-valued streams, and percentiles.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/time.hpp"

namespace rt {

/// Numerically stable streaming accumulator (Welford) for double-valued
/// streams: per-replication metrics (MetricStat) and trace analysis.
class RunningStats {
 public:
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

/// Exact moments of a stream of whole-nanosecond durations: the count, the
/// sum, the sum of squares, the minimum and the maximum, all integers. add()
/// neither divides nor rounds, and the state after any sequence of add()
/// and merge() calls depends only on the multiset of samples, never on
/// their order. Statistics convert to milliseconds when read.
///
/// Overflow bound: every value stays exact while count() times the largest
/// |sample| is below 2^63 ns. Then |sum| < 2^63 fits the int64 sum, the sum
/// of squares is at most 2^63 * max|sample| < 2^126, and variance()'s
/// numerator count * sum of squares is below 2^126: both fit the __int128.
/// 10^6 samples of 2^40 ns (18 minutes each) come to 2^60.
class DurationStats {
 public:
  /// Inline: every engine calls it once per finite response.
  void add(Duration d) {
    const std::int64_t x = d.ns();
    ++n_;
    sum_ += x;
    sum_sq_ += static_cast<__int128>(x) * x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  /// In ms; 0 when empty.
  [[nodiscard]] double mean() const;
  /// Sample variance (n-1 denominator) in ms^2; 0 for fewer than two
  /// samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double min() const { return Duration{min_ns()}.ms(); }
  [[nodiscard]] double max() const { return Duration{max_ns()}.ms(); }
  [[nodiscard]] double sum() const { return Duration{sum_}.ms(); }

  /// The stored integers; min and max are 0 when empty.
  [[nodiscard]] std::int64_t sum_ns() const { return sum_; }
  [[nodiscard]] __int128 sum_sq_ns2() const { return sum_sq_; }
  [[nodiscard]] std::int64_t min_ns() const { return n_ ? min_ : 0; }
  [[nodiscard]] std::int64_t max_ns() const { return n_ ? max_ : 0; }

  /// Adds another stream's samples; exact, so the result equals adding
  /// them one by one in any order.
  void merge(const DurationStats& o);

 private:
  std::size_t n_ = 0;
  std::int64_t sum_ = 0;
  __int128 sum_sq_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = std::numeric_limits<std::int64_t>::min();
};

/// Percentile with linear interpolation between closest ranks
/// (the "exclusive" definition used by numpy's default).
/// `p` in [0, 100]. The input is copied and sorted; throws on empty input
/// and on a `p` outside [0, 100] or NaN.
double percentile(std::vector<double> samples, double p);

}  // namespace rt
