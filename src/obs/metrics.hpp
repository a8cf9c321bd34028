#pragma once
// Telemetry primitives: counters, gauges, and fixed-bucket (power-of-two)
// value histograms, collected in a name-addressed MetricRegistry.
//
// Design constraints (see docs/ANALYSIS.md §8):
//  * Disabled telemetry must be a no-op. Instrumented code holds plain
//    pointers to metrics (null when no sink is attached) and every hot-path
//    helper below is an inline null check -- no virtual call, no lock, no
//    allocation on the disabled path (tests/obs/overhead_test.cpp counts
//    allocations to enforce this).
//  * Metrics are NOT thread-safe. Concurrency happens by sharding: each
//    worker owns a private registry and shards are merge()d at join
//    (obs::Sink::absorb). Counters and histogram buckets are integers, so
//    the merged totals are independent of the merge order.
//  * References returned by the registry stay valid for the registry's
//    lifetime (std::map nodes are stable), so call sites resolve a handle
//    once and increment through it.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace rt::obs {

/// Monotone event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void merge(const Counter& o) { value_ += o.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value (e.g. a worker's throughput). Merging
/// keeps the maximum so shard joins are order-independent; give each worker
/// its own gauge name when the individual values matter.
class Gauge {
 public:
  void set(double v) {
    value_ = set_ && value_ > v ? value_ : v;
    set_ = true;
  }
  [[nodiscard]] bool has_value() const { return set_; }
  [[nodiscard]] double value() const { return value_; }
  void merge(const Gauge& o) {
    if (o.set_) set(o.value_);
  }

 private:
  double value_ = 0.0;
  bool set_ = false;
};

/// Fixed-bucket histogram over non-negative int64 values (typically
/// nanosecond durations or item counts). Bucket 0 holds v <= 0; bucket
/// k >= 1 holds values in [2^(k-1), 2^k). 64 buckets cover the full int64
/// range, add() is branch-free bit arithmetic, and merging is an
/// element-wise integer sum.
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void add(std::int64_t v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  [[nodiscard]] std::int64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::int64_t max() const { return count_ ? max_ : 0; }
  [[nodiscard]] double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t bucket) const;
  /// Inclusive lower / exclusive upper value bound of a bucket.
  [[nodiscard]] static std::int64_t bucket_lo(std::size_t bucket);
  [[nodiscard]] static std::int64_t bucket_hi(std::size_t bucket);

  void merge(const LogHistogram& o);

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// Name-addressed metric store. Lookup creates on first use; names are
/// dot-separated lowercase paths ("sim.task.3.timely"). Export order is
/// the sorted name order, so snapshots are stable across runs.
class MetricRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LogHistogram& histogram(std::string_view name);

  /// Read-only lookups; nullptr when the metric does not exist.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const LogHistogram* find_histogram(std::string_view name) const;

  [[nodiscard]] bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Element-wise merge (counters/buckets sum, gauges max).
  void merge(const MetricRegistry& other);

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {count,sum,min,max,mean,buckets:[{lo,hi,count}...]}}} -- only occupied
  /// buckets are emitted.
  [[nodiscard]] Json snapshot_json() const;

  /// One metric per line: kind,name,count,sum,min,max,mean (counters and
  /// gauges fill count/sum only). Header row included.
  [[nodiscard]] std::string snapshot_csv() const;

  [[nodiscard]] const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge, std::less<>>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, LogHistogram, std::less<>>&
  histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, LogHistogram, std::less<>> histograms_;
};

/// Null-safe hot-path helpers: the disabled path (nullptr handle) is a
/// single predictable branch.
inline void inc(Counter* c, std::uint64_t delta = 1) {
  if (c != nullptr) c->inc(delta);
}
inline void observe(LogHistogram* h, std::int64_t v) {
  if (h != nullptr) h->add(v);
}

}  // namespace rt::obs
