#pragma once
// Reusable zero-allocation event engine behind sim::simulate.
//
// SimEngine is the discrete-event driver of the shared protocol core
// (protocol_core.hpp): the core runs the per-job state machine, and the
// engine feeds it events from a simulated clock. The real runtime
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
//   * the event queue is a 4-ary min-heap of plain Event values holding
//     only releases, timely arrivals and compensation timers: the core
//     arms at most one slice end at a time, so that one lives in a
//     (time, seq) register beside the heap, and re-arming or cancelling
//     it overwrites the register instead of leaving a stale heap entry;
//   * offload tokens index a generation-tagged slot map, erased eagerly at
//     resolution, so the in-flight population equals outstanding offloads;
//   * provably dead events are never queued: when a timely arrival is
//     scheduled, its compensation timer (which the arrival always beats)
//     is elided instead of queued-then-skipped.
//
// Results are bit-identical to the seed engine (reference_engine.hpp);
// tests/sim/determinism_test.cpp enforces this over a randomized grid of
// scheduler x deadline x release configurations.
//
// A SimEngine is single-threaded and reusable: run() fully re-seeds the
// engine from its arguments, so one engine per worker amortizes all buffer
// growth across a batch (exp::BatchRunner does this automatically).

#include <cstdint>
#include <memory>

#include "sim/simulator.hpp"

namespace rt::sim {

/// Internal accounting of the last run(); stable across identical runs.
struct EngineStats {
  /// Events popped by this engine. Lower than the seed engine's count for
  /// the same scenario: timers elided by a timely arrival never queue, and
  /// a superseded slice end is overwritten instead of popped.
  std::uint64_t events_processed = 0;
  std::uint64_t jobs_released = 0;
  /// Most sub-job slots ever live at once (concurrent sub-jobs).
  std::size_t pool_slots_peak = 0;
  /// Slots allocated in the pool (>= peak only through reuse of a larger
  /// earlier run; never grows past the peak within one run).
  std::size_t pool_slots_capacity = 0;
  /// Most in-flight offload tokens ever live at once.
  std::size_t in_flight_peak = 0;
  /// Largest event-heap population: at most one release per task plus
  /// one arrival or timer per in-flight offload (the armed slice end is
  /// kept outside the heap).
  std::size_t event_heap_peak = 0;
};

class SimEngine {
 public:
  SimEngine();
  ~SimEngine();
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;
  SimEngine(SimEngine&&) noexcept;
  SimEngine& operator=(SimEngine&&) noexcept;

  /// Same contract as sim::simulate. Reuses all internal buffers; only the
  /// returned SimMetrics/Trace storage is allocated per run.
  SimResult run(const core::TaskSet& tasks, const core::DecisionVector& decisions,
                server::ResponseModel& server, const SimConfig& config,
                const RequestProfile& profile = {});

  [[nodiscard]] const EngineStats& stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rt::sim
