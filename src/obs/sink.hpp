#pragma once
// The telemetry attachment point: a Sink bundles a MetricRegistry with a
// wall-clock phase timeline. Components (sim::Simulator, exp::BatchRunner,
// the MCKP solvers, the CLI) accept an optional `Sink*`; nullptr disables
// all telemetry at near-zero cost.
//
// Threading model: a Sink is single-threaded by contract. Parallel code
// (BatchRunner) gives worker w its own shard Sink w, on the caller's time
// origin (set_origin), and absorbs the shards into the caller's Sink in
// worker order after the join. Counter/histogram merges are integer sums,
// so every merged metric derived from deterministic per-scenario work is
// itself deterministic for any worker count; wall-clock values (phase
// timings, per-worker throughput) are telemetry only and carry no such
// promise.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace rt::obs {

/// One named wall-clock interval, e.g. a batch scenario on a worker.
/// Times are nanoseconds relative to the owning Sink's origin.
struct PhaseEvent {
  std::string name;
  std::uint32_t worker = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Sink {
 public:
  Sink();

  [[nodiscard]] MetricRegistry& registry() { return registry_; }
  [[nodiscard]] const MetricRegistry& registry() const { return registry_; }

  [[nodiscard]] std::vector<PhaseEvent>& phases() { return phases_; }
  [[nodiscard]] const std::vector<PhaseEvent>& phases() const { return phases_; }

  /// Nanoseconds of wall clock since this sink was created (steady clock).
  [[nodiscard]] std::int64_t now_ns() const;

  /// For shards: report time relative to a parent sink's origin so merged
  /// phase events share one timeline.
  void set_origin(std::chrono::steady_clock::time_point origin) { origin_ = origin; }
  [[nodiscard]] std::chrono::steady_clock::time_point origin() const {
    return origin_;
  }

  /// Folds a shard into this sink: metrics merge element-wise, phase
  /// events append with their worker id rewritten to `worker`.
  void absorb(const Sink& shard, std::uint32_t worker);

 private:
  MetricRegistry registry_;
  std::vector<PhaseEvent> phases_;
  std::chrono::steady_clock::time_point origin_;
};

/// RAII wall-clock interval recorded as a PhaseEvent (and optionally into a
/// duration histogram). A null sink makes construction and destruction
/// no-ops: no clock read, no string copy, no allocation.
class PhaseProbe {
 public:
  PhaseProbe(Sink* sink, std::string_view name,
             LogHistogram* duration_hist = nullptr)
      : sink_(sink), hist_(duration_hist) {
    if (sink_ != nullptr) {
      name_.assign(name);
      start_ns_ = sink_->now_ns();
    }
  }
  ~PhaseProbe() {
    if (sink_ == nullptr) return;
    const std::int64_t end_ns = sink_->now_ns();
    sink_->phases().push_back(
        PhaseEvent{std::move(name_), 0, start_ns_, end_ns});
    if (hist_ != nullptr) hist_->add(end_ns - start_ns_);
  }
  PhaseProbe(const PhaseProbe&) = delete;
  PhaseProbe& operator=(const PhaseProbe&) = delete;

 private:
  Sink* sink_;
  LogHistogram* hist_;
  std::string name_;
  std::int64_t start_ns_ = 0;
};

}  // namespace rt::obs
