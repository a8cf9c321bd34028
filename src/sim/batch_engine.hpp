#pragma once
// Batched Monte-Carlo replication engine: K replications of one scenario
// advance together over a shared event skeleton.
//
// Replication r of a scenario is defined as the serial engine run with
// `seed = derive_seed(base_seed, r)` against a pristine copy of the server
// prototype. This engine produces exactly those results (bit-identical
// SimMetrics per replication; enforced by tests/sim/determinism_test.cpp)
// while hoisting everything replication-invariant out of the per-seed work:
//
//  * The task set, decision vector, deadline-monotonic ranks and
//    per-(task, decision) TaskCache are resolved once per batch
//    (engine_detail.hpp), not once per replication.
//  * Under the paper's evaluation configuration (EDF, always-WCET
//    execution, periodic releases, zero context-switch overhead, zero
//    post-processing WCET) the CPU schedule of release/setup/local work is
//    the same in every replication: only the server draws differ. A third
//    driver of the protocol core (protocol_core.hpp) runs that shared
//    skeleton once, recording the busy segments, the request send points
//    and the replication-invariant metric template. Each draw column's
//    response window is split at the skeleton's pop instants into
//    intervals, and a post arriving inside one has an outcome that depends
//    on nothing else (it takes no time), computed once per skeleton. A
//    block of up to 128 replications then walks the columns once: one
//    ResponseModel::sample_n draws the column for every live lane, and each
//    lane checks its window, adds the response to its statistics and adds
//    its interval's outcome to structure-of-arrays counters. A stateful
//    model runs the same loop one lane at a time.
//  * A lane whose result arrival lands on the nanosecond of a release, a
//    completion or another of its arrivals leaves the column loop for the
//    exact merge, which orders those events exactly as the serial engine
//    does. Events on one nanosecond pop in push order (a release was
//    pushed one period earlier, an arrival at its send, the running job's
//    completion at its last (re)dispatch, a zero-length post's slice end
//    at the instant itself), and ready-queue ties on the EDF key break on
//    push order of the sub-jobs (a skeleton job at its release pop, a
//    post at its arrival pop).
//  * Only a replication the skeleton cannot represent -- a response later
//    than its window R, or none (compensation perturbs the schedule) --
//    falls back to a serial-engine run with the same derived seed, which
//    is bit-identical by construction; so does one with a zero response,
//    the one same-instant pattern the replay does not step.
//    Configurations outside the skeleton preconditions (sporadic
//    releases, stochastic execution times, fixed-priority dispatch,
//    traces, mode controllers, ...) take the fallback for every
//    replication.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/batch_metrics.hpp"
#include "sim/simulator.hpp"

namespace rt::sim {

struct BatchEngineStats {
  /// Replications served by the shared-skeleton fast path.
  std::size_t fast_replications = 0;
  /// Replications that ran through the serial engine (ineligible
  /// configuration, or a bail below).
  std::size_t fallback_replications = 0;
  /// Fast-path replications abandoned mid-replay (subset of
  /// fallback_replications): bailed_window + bailed_tie.
  std::size_t bailed_replications = 0;
  /// Bails on a response later than R, or no response.
  std::size_t bailed_window = 0;
  /// Bails on a same-instant pattern the exact tie step declines: a zero
  /// response, whose arrival is pushed on the instant it pops.
  std::size_t bailed_tie = 0;
  /// Same-instant events the tie step resolved, summed over the
  /// fast-path replications (one per instant per replication).
  std::size_t tie_instants = 0;
  /// Replications handed to the exact merge: a result arrival on a
  /// skeleton pop or on another of its arrivals' nanosecond, or a zero
  /// response, drawn before any late response. Each then ends fast or
  /// bailed like any other.
  std::size_t exact_replays = 0;
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

  /// Runs `replications` independent replications of the scenario.
  /// `config.seed` is the base seed; replication r runs under
  /// derive_seed(config.seed, r). The server prototype is never mutated:
  /// the engine works on one internal clone, reset between replications
  /// (clone() is documented reset-equivalent). A configured
  /// config.controller is honoured through the fallback path (begin_run
  /// re-arms it for every replication, as the serial engine does).
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
