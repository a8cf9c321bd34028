#pragma once
// Post-hoc analysis over simulation traces.
//
// The metrics struct aggregates; the trace keeps the raw event sequence.
// This module recovers distributions the analysis cares about: end-to-end
// job response times (release -> completion), preemption counts, and the
// worst observed response per task -- the empirical counterpart of the RTA
// and PDA bounds, used by tests to sandwich theory and simulation. It
// lives with the tests, in the rt_sim_analysis library, because only they
// call it.

#include <vector>

#include "core/task.hpp"
#include "sim/trace.hpp"
#include "util/stats.hpp"

namespace rt::sim {

struct TaskResponseStats {
  RunningStats response_ms;      ///< completed jobs' response times
  std::uint64_t preemptions = 0;
  std::uint64_t incomplete = 0;  ///< released but not completed in the trace
};

/// Extracts per-task response statistics from a trace recorded with enough
/// capacity (releases/completions must not have been truncated for the
/// numbers to be exact; `Trace::truncated()` tells). `num_tasks` sizes the
/// result; task indices beyond it throw.
std::vector<TaskResponseStats> response_stats_from_trace(const Trace& trace,
                                                         std::size_t num_tasks);

/// The largest observed end-to-end response over all tasks, 0 if none.
Duration max_observed_response(const Trace& trace, std::size_t num_tasks);

}  // namespace rt::sim
