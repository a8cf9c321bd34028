#pragma once
// The Offloading Decision Manager (paper Sections 3.3 and 5.2).
//
// Given the task set with benefit functions, choose for every task either
// local execution or an offloading level (which fixes the estimated
// worst-case response time R_i) so that the total (weighted) benefit is
// maximized subject to the Theorem 3 schedulability condition. The
// selection problem is exactly the multiple-choice knapsack problem of
// Eq. (5); weights are the fixed-point density terms, the capacity is 1.

#include <cstddef>
#include <optional>
#include <vector>

#include "core/decision.hpp"
#include "core/schedulability.hpp"
#include "core/task.hpp"
#include "mckp/instance.hpp"
#include "mckp/solvers.hpp"

namespace rt::core {

struct OdmConfig {
  /// Which MCKP algorithm decides (the paper evaluates kDpProfits, the
  /// Dudzinski-Walukiewicz DP, and kHeuOe).
  mckp::SolverKind solver = mckp::SolverKind::kDpProfits;
  /// Profit discretization for the DP (benefit units per 1.0 of G).
  /// Shares mckp::kDefaultProfitScale with the solver defaults so the two
  /// layers cannot drift apart.
  double profit_scale = mckp::kDefaultProfitScale;
  /// Multiply each task's benefit by its importance weight in the objective
  /// (the case study's weighted image quality).
  bool apply_task_weights = true;
  /// Estimation accuracy ratio x (paper Section 6.2): the estimator's view
  /// of every benefit breakpoint is (1+x)*r. 0 = perfect estimation.
  /// Must be > -1.
  double estimation_error = 0.0;
  /// Optional telemetry sink (docs/ANALYSIS.md §8): records odm.* timing
  /// and decision counters plus the solver's mckp.* metrics. Decisions are
  /// pure functions of (task set, config) with or without a sink. The sink
  /// is single-threaded; batch callers must point each worker at its own
  /// shard (see exp::BatchRunner).
  obs::Sink* sink = nullptr;
};

struct OdmResult {
  DecisionVector decisions;
  /// Sum of claimed (estimator-view, possibly weighted) benefits.
  double claimed_objective = 0.0;
  /// LP relaxation upper bound on the objective (>= any feasible value).
  double lp_bound = 0.0;
  /// Theorem 3 verdict on the final decisions. The ODM never returns
  /// offloading decisions that fail the test; when even the all-local
  /// selection is infeasible this is false and the decisions are all-local.
  bool feasible = false;
  /// Total Theorem 3 density of the returned decisions.
  double density = 0.0;
  /// The underlying MCKP selection (diagnostics).
  mckp::Selection raw_selection;
};

/// The MCKP instance built from a task set plus the mapping from MCKP item
/// indices back to benefit levels (items whose density saturates or whose
/// R >= D are dropped).
struct OdmInstance {
  mckp::Instance instance;
  /// level_of[c][k]: benefit level of item k in class c.
  std::vector<std::vector<std::size_t>> level_of;
  /// response_of[c][k]: the estimated worst-case response time R the item
  /// grants. Usually the level's breakpoint; for tasks with a trusted
  /// response upper bound B an extra item per level offers R = B (wider
  /// timer, but only C3 -- not C2 -- reserved).
  std::vector<std::vector<Duration>> response_of;
  /// The estimator's view of each task's benefit function (scaled by 1+x).
  std::vector<BenefitFunction> estimated_benefit;
};

/// Builds the Eq. (5) instance. Exposed for tests and benches.
OdmInstance build_odm_instance(const TaskSet& tasks, const OdmConfig& config);

/// Runs the full pipeline: build instance, solve, map back, re-verify with
/// Theorem 3 (defense in depth: a buggy solver must not break timing
/// safety -- an infeasible selection degrades to all-local).
OdmResult decide_offloading(const TaskSet& tasks, const OdmConfig& config = {});

/// Baseline (Nimmagadda et al. [8] style): each task independently picks
/// its highest benefit level whose estimated response time fits its
/// deadline with room for setup + compensation, ignoring the global
/// schedulability condition. Useful to demonstrate why the MCKP + Theorem 3
/// coupling matters.
DecisionVector greedy_local_choice(const TaskSet& tasks, double estimation_error = 0.0);

}  // namespace rt::core
