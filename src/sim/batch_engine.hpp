#pragma once
// Batched Monte-Carlo replication engine: K replications of one scenario
// advance together over a shared event skeleton.
//
// Replication r is defined as the serial engine run with `seed =
// derive_seed(base_seed, r)` against a pristine copy of the server
// prototype; this engine produces exactly those results (bit-identical
// SimMetrics, enforced by tests/sim/determinism_test.cpp). Under the
// paper's evaluation configuration (EDF, always-WCET, periodic releases,
// zero context-switch overhead and post WCET) one protocol-core run
// records the schedule every timely replication shares; blocks of up to
// 128 replications walk its draw columns together (one
// ResponseModel::sample_n per column, one table lookup per lane), and a
// replication that leaves the skeleton's path re-runs the core alone
// between two idle instants (a resync window), then rejoins. Per column,
// the lanes' interval counts and same-nanosecond checks run as passes
// across the lanes on 32-bit offsets from the column's send, which
// baseline SSE2 vectorizes; so a draw window R must be below 2^31 ns.
// Other configurations, wider windows, and skeletons with a completion
// and a release on one nanosecond run every replication on the serial
// engine, counted per cause in BatchEngineStats; a telemetry sink is no
// cause. The parity argument is in batch_engine.cpp, the rules in
// docs/ANALYSIS.md §12.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/batch_metrics.hpp"
#include "sim/simulator.hpp"

namespace rt::sim {

struct BatchEngineStats {
  /// Replications served by the skeleton, with or without windows.
  std::size_t fast_replications = 0;
  /// Replications run on the serial engine: the ineligible_* sum.
  std::size_t fallback_replications = 0;
  /// Replications abandoned mid-replay for a serial run; every lane that
  /// leaves the skeleton resyncs instead, so this reads 0.
  std::size_t bailed_replications = 0;
  /// Resync windows run, and the events their protocol cores popped.
  std::uint64_t resync_windows = 0;
  std::uint64_t resync_events = 0;
  /// Serial replications by why the skeleton could not serve them, the
  /// first that holds in this order: a configuration outside its
  /// preconditions (scheduler, execution-time policy, release policy,
  /// context-switch overhead, controller, trace: only a serial run
  /// records one), a nonzero post WCET, a draw window R of 2^31 ns or
  /// more, or the tie precheck.
  std::size_t ineligible_scheduler = 0;
  std::size_t ineligible_exec_policy = 0;
  std::size_t ineligible_release_policy = 0;
  std::size_t ineligible_context_switch = 0;
  std::size_t ineligible_controller = 0;
  std::size_t ineligible_trace = 0;
  std::size_t ineligible_post_wcet = 0;
  std::size_t ineligible_wide_window = 0;
  std::size_t ineligible_ties = 0;
};

struct BatchResult {
  /// Metrics of replication r, bit-identical to the serial engine run
  /// with seed = derive_seed(config.seed, r).
  std::vector<SimMetrics> per_replication;
  /// One-pass streaming aggregate (mean/stddev/CI) over all replications.
  BatchMetrics aggregate;
};

/// Reusable batched engine; buffers persist across run() calls like
/// SimEngine's. Not thread-safe.
class BatchSimEngine {
 public:
  BatchSimEngine();
  ~BatchSimEngine();
  BatchSimEngine(BatchSimEngine&&) noexcept;
  BatchSimEngine& operator=(BatchSimEngine&&) noexcept;

  /// Runs `replications` replications of the scenario, replication r
  /// under derive_seed(config.seed, r), on one internal clone of the
  /// prototype (never mutated), reset between replications. A configured
  /// config.controller is honoured through the serial path. config.sink
  /// gets each replication's sim.* counters and the run's split.
  BatchResult run(const core::TaskSet& tasks,
                  const core::DecisionVector& decisions,
                  const server::ResponseModel& prototype,
                  const SimConfig& config, std::size_t replications,
                  const RequestProfile& profile = {});

  [[nodiscard]] const BatchEngineStats& stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rt::sim
