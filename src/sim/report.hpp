#pragma once
// Human-readable reports over simulation metrics (shared by examples and
// tools so every binary prints the same shape of table).

#include "core/decision.hpp"
#include "core/task.hpp"
#include "sim/metrics.hpp"
#include "util/table.hpp"

namespace rt::sim {

/// Per-task table: jobs, timely/compensated/missed counts, response stats,
/// accrued benefit. Decisions are optional (pass {} to omit the column).
Table per_task_report(const core::TaskSet& tasks, const SimMetrics& metrics,
                      const core::DecisionVector& decisions = {});

}  // namespace rt::sim
