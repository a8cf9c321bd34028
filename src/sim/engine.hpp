#pragma once
// Reusable zero-allocation event engine behind sim::simulate.
//
// SimEngine runs the protocol core (protocol_core.hpp) through the one
// simulation driver (core_runner.hpp), which the batch engine's skeleton
// and resync windows use too: the core runs the per-job state machine, and
// the driver feeds it events from a simulated clock. The real runtime
// (runtime/offload_runtime.hpp) drives the same core from an epoll loop.
//
// The batch sweep engine (exp::BatchRunner) runs thousands of simulations
// per invocation, so the per-event cost of the engine dominates the whole
// experiment pipeline. SimEngine keeps every internal structure as a flat
// buffer that survives across runs (docs/ANALYSIS.md §9):
//
//   * sub-jobs live in a free-list slot pool, so peak memory is bounded by
//     the number of *concurrent* sub-jobs, not by the jobs released over
//     the horizon;
//   * the ready queue is an indexed 4-ary min-heap over slot indices keyed
//     on (priority_key, seq) -- no tree nodes, no per-insert allocation;
//   * releases come from a heap of each task's next release; a periodic
//     run leaves the releases it popped behind as a schedule, and the
//     next run with the same task periods and horizon replays it (a sweep
//     over estimation errors builds it once); sporadic gaps are drawn
//     mid-run, so sporadic runs always use the heap;
//   * the core arms at most one slice end at a time, so it lives in a
//     register, and re-arming or cancelling it overwrites the register;
//   * the event heap holds only the offloads in flight, each with its job
//     (deadline, id, task, mode), so one pop resolves it; a timely reply's
//     compensation timer, which the reply always beats, is never queued.
//
// Memory is O(tasks + offloads in flight + Σ H/T_i): the kept schedule
// holds 8 bytes per release before the horizon (74 KB for a 30-task
// Fig. 3 set at 200 s).
//
// Results are bit-identical to the seed engine (reference_engine.hpp in
// tests/support); tests/sim/determinism_test.cpp enforces this over a
// randomized grid of scheduler x deadline x release configurations.
//
// A SimEngine is single-threaded and reusable: run() fully re-seeds the
// engine from its arguments, and the schedule it keeps is keyed on the
// periods and horizon themselves, so a result never depends on the runs
// before it. One engine per worker amortizes all buffer growth across a
// batch (exp::BatchRunner does this automatically).

#include <cstdint>
#include <memory>

#include "sim/simulator.hpp"

namespace rt::sim {

namespace detail {
class CoreRunner;
}  // namespace detail

/// Internal accounting of the last run(); stable across identical runs.
struct EngineStats {
  /// Events stepped: releases, slice ends, replies and compensation
  /// timers. Lower than the seed engine's count for the same scenario:
  /// timers elided by a timely arrival never queue, and a superseded slice
  /// end is overwritten instead of popped. Equals total_events() (sim.events).
  std::uint64_t events_processed = 0;
  /// Most sub-job slots ever live at once (concurrent sub-jobs).
  std::size_t pool_slots_peak = 0;
  /// Slots allocated in the pool (>= peak only through reuse of a larger
  /// earlier run; never grows past the peak within one run).
  std::size_t pool_slots_capacity = 0;
  /// Most offloads ever in flight at once, which is also the event heap's
  /// peak: releases come from the schedule (or the sporadic heap) and the
  /// armed slice end from its register, so the heap holds one arrival or
  /// timer per offload in flight and nothing else.
  std::size_t in_flight_peak = 0;
};

class SimEngine {
 public:
  SimEngine();
  ~SimEngine();
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;
  SimEngine(SimEngine&&) noexcept;
  SimEngine& operator=(SimEngine&&) noexcept;

  /// Same contract as sim::simulate. Reuses all internal buffers, and the
  /// release schedule when the periods and horizon are the last run's;
  /// only the returned SimMetrics/Trace storage is allocated per run.
  SimResult run(const core::TaskSet& tasks, const core::DecisionVector& decisions,
                server::ResponseModel& server, const SimConfig& config,
                const RequestProfile& profile = {});

  [[nodiscard]] const EngineStats& stats() const;

 private:
  std::unique_ptr<detail::CoreRunner> core_;
};

}  // namespace rt::sim
