#pragma once
// Metrics collected by the discrete-event simulation.

#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.hpp"
#include "util/time.hpp"

namespace rt::obs {
class Sink;
}  // namespace rt::obs

namespace rt::sim {

struct TaskMetrics {
  std::uint64_t released = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t local_runs = 0;          ///< jobs executed fully locally
  std::uint64_t offload_attempts = 0;    ///< setup sub-jobs that sent a request
  std::uint64_t timely_results = 0;      ///< results inside the R_i window
  std::uint64_t compensations = 0;       ///< timer fired, fallback executed
  std::uint64_t late_results = 0;        ///< results after the timer (discarded)
  double accrued_benefit = 0.0;          ///< weighted, per the benefit semantics
  DurationStats observed_response_ms;    ///< finite offload response times
};

struct SimMetrics {
  std::vector<TaskMetrics> per_task;
  /// Time some sub-job held the CPU in [0, H), a job still running at the
  /// horizon included: the same definition the real runtime uses.
  std::int64_t cpu_busy_ns = 0;
  std::uint64_t context_switches = 0;  ///< dispatch changes to a live job
  /// True when the bounded sim::Trace hit its capacity and dropped events.
  /// A truncated trace still yields exact metrics (counters never drop),
  /// but timeline exports (--trace-out) are incomplete.
  bool trace_truncated = false;
  /// Degraded-mode controller activity (0 when SimConfig::controller is
  /// null): vector switches taken at release boundaries, and the total
  /// simulated time spent in degraded mode.
  std::uint64_t mode_changes = 0;
  std::int64_t time_in_degraded_ns = 0;
  TimePoint end_time;

  [[nodiscard]] std::uint64_t total_released() const;
  [[nodiscard]] std::uint64_t total_completed() const;
  [[nodiscard]] std::uint64_t total_deadline_misses() const;
  [[nodiscard]] std::uint64_t total_compensations() const;
  [[nodiscard]] std::uint64_t total_timely_results() const;
  /// Events the serial engine steps in a run with these metrics: one per
  /// release, per sub-job completion (a setup, or a job's last sub-job)
  /// and per offload resolution (a timely reply or a compensation timer).
  [[nodiscard]] std::uint64_t total_events() const;
  [[nodiscard]] double total_benefit() const;
  /// Fraction of the horizon the CPU was executing sub-jobs.
  [[nodiscard]] double cpu_utilization() const;

  [[nodiscard]] std::string summary() const;
};

/// Adds a finished run's counts to `sink` under `prefix` ("sim" for the
/// simulator, "runtime" for the real runtime): <prefix>.jobs_released, and
/// per task i <prefix>.task.<i>.timely, .compensations and .misses. A null
/// sink is a no-op.
void add_run_counters(obs::Sink* sink, const std::string& prefix,
                      const SimMetrics& metrics);

/// Adds a simulated run's sim.* counters, derived from its metrics alone
/// so that every engine path writes the same: add_run_counters under
/// "sim", sim.events and, under a controller, sim.mode_changes and
/// sim.time_in_degraded_ns. A null sink is a no-op.
void add_sim_counters(obs::Sink* sink, const SimMetrics& metrics, bool controller);

}  // namespace rt::sim
