#pragma once
// Schedulability analysis (paper Section 5.1).
//
// Primary test -- Theorem 3: under the split-deadline EDF scheduler, the
// partition (T_o, T_l) with estimated response times R_i is feasible if
//
//   sum_{i in T_o} (C_{i,1} + C_{i,2}) / (D_i - R_i)
//     + sum_{i in T_l} C_i / T_i   <=   1.
//
// The per-task terms are the linear demand-bound-function upper bounds of
// Theorems 1 and 2. Evaluation uses UtilFp (fixed point, round-up,
// saturating), so an accepted set is truly feasible and nothing overflows.
//
// Extension (ablation B): an exact processor-demand analysis over the step
// demand bound functions of the split sub-jobs, to quantify the pessimism
// of the linear bounds.

#include <vector>

#include "core/decision.hpp"
#include "core/task.hpp"
#include "util/fixedpoint.hpp"

namespace rt::core {

/// Theorem 2 term: C_i / T_i (local task), rounded up.
UtilFp local_density(const Task& t);

/// Theorem 1 term: (C_{i,1} + C_{i,2}) / (D_i - R_i), rounded up.
/// Returns UtilFp::saturated() when R_i >= D_i (the choice can never fit).
UtilFp offload_density(const Task& t, Duration response_time, std::size_t level);

/// The density contribution of task under its decision.
UtilFp decision_density(const Task& t, const Decision& d);

/// Total Theorem 3 left-hand side.
UtilFp total_density(const TaskSet& tasks, const DecisionVector& decisions);

/// Theorem 3: accepted iff total density <= 1.
bool theorem3_feasible(const TaskSet& tasks, const DecisionVector& decisions);

// ---------------------------------------------------------------------------
// Exact demand bound functions (extension).
//
// A local task contributes the classical sporadic dbf. An offloaded task's
// two sub-job streams admit exactly two critical window alignments:
//  (A) the window opens at the latest possible release of a second sub-job
//      (its job's setup+suspension exhausted): second sub-jobs' deadlines at
//      j*T + D2, subsequent first sub-jobs' deadlines at (j+1)*T - R;
//  (B) the window opens at a job release: first sub-jobs' deadlines at
//      j*T + D1, second sub-jobs' at j*T + D.
// dbf(t) = max(A(t), B(t)); see tests for the dominance argument.
// ---------------------------------------------------------------------------

/// Exact dbf of one task under its decision, in executed nanoseconds.
std::int64_t dbf_exact(const Task& t, const Decision& d, Duration interval);

/// Linear upper bound of the same (Theorems 1/2): density * t, computed in
/// integer arithmetic with round-up.
std::int64_t dbf_linear_bound(const Task& t, const Decision& d, Duration interval);

/// Result of the processor-demand analysis.
struct PdaResult {
  bool feasible = false;
  /// First interval length where demand exceeded supply (when infeasible).
  Duration violation_at = Duration::zero();
  /// The horizon actually tested.
  Duration horizon = Duration::zero();
  /// True when the asymptotic utilization was >= 1 so no finite horizon
  /// exists (reported infeasible).
  bool unbounded_utilization = false;
};

/// Exact EDF processor-demand analysis of the split-deadline schedule:
/// checks sum_i dbf_exact(tau_i, t) <= t at every demand step point up to
/// the busy-period bound (capped at `horizon_cap` to keep runtimes sane; a
/// cap hit with no violation is reported feasible=true only if the bound
/// fit under the cap, otherwise falls back to the Theorem 3 answer).
PdaResult pda_feasible(const TaskSet& tasks, const DecisionVector& decisions,
                       Duration horizon_cap = Duration::seconds(3600));

}  // namespace rt::core
