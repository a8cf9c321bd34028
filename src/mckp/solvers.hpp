#pragma once
// MCKP solvers.
//
// The paper (Section 5.2) solves the offloading-selection MCKP with
//  (1) the pseudo-polynomial dynamic programming algorithm of
//      Dudzinski & Walukiewicz [5] -- implemented here as DP over profits
//      (minimal weight per achievable profit), which keeps the capacity
//      comparison exact because weights are never discretized; and
//  (2) the HEU-OE heuristic from Khan's thesis [6] -- implemented as the
//      classical convex-hull incremental-efficiency greedy with a residual
//      upgrade pass (see DESIGN.md for the substitution note).
// An LP-relaxation upper bound completes the family. The exact oracles the
// tests hold these against (enumeration, branch and bound) live in
// tests/support.

#include "mckp/instance.hpp"

namespace rt::obs {
class Sink;
}  // namespace rt::obs

namespace rt::mckp {

enum class SolverKind {
  kDpProfits,  ///< Dudzinski-Walukiewicz DP (exact up to profit rounding)
  kHeuOe,      ///< greedy heuristic (feasible, near-optimal)
};

const char* to_string(SolverKind kind);

/// Default profit discretization for the profit DP (benefit units per 1.0
/// of G). The single source of truth: core::OdmConfig and the solver
/// defaults below both reference this constant so they cannot drift.
inline constexpr double kDefaultProfitScale = 1000.0;

/// Reusable scratch space for solve_dp_profits. The profit DP runs on the
/// lattice of multiples of g, the gcd of the kept scaled profits, and keeps,
/// per class c, only its row's Pareto cells: those that can still lead to
/// an answer and are strictly lighter than every cell of higher profit
/// (see solve_dp_profits). It builds the rows as it goes: each row's min
/// weights go to one scratch row, and its Pareto cells are appended to two
/// flat arrays, lattice profit and min weight, in ascending profit (row r
/// holds cells [row_begin[r], row_begin[r+1]); row 0 is the empty
/// selection, row c+1 the row after class c; the arrays may run past the
/// last row's end). No choice is stored; the pick is rebuilt from the
/// weights. The online ODM path (admission control, mode changes) reuses
/// one workspace across calls instead of reallocating. A workspace serves
/// one thread at a time; passing nullptr uses a per-thread (thread_local)
/// workspace, which makes the plain call both allocation-free after warm-up
/// and thread-safe. Contents are opaque scratch: valid only during a solve.
struct DpWorkspace {
  std::vector<std::int64_t> cell_p;  ///< lattice profits of every row's cells
  std::vector<std::int64_t> cell_w;  ///< min weights of every row's cells
  std::vector<std::size_t> row_begin;  ///< m+2 row offsets into cell_p/cell_w
  std::vector<std::int64_t> next;    ///< scratch: the row being computed
  std::vector<std::int64_t> next_at; ///< scratch: its Pareto cells' offsets
  std::vector<std::int64_t> q;       ///< lattice profits of kept items, flat
  std::vector<std::int64_t> wt;      ///< weights of kept items, flat
  std::vector<std::int32_t> item_of; ///< original item index per kept item
  std::vector<std::size_t> class_begin;  ///< m+1 offsets into q/wt/item_of
  std::vector<double> reach;         ///< capacity cut: bound on classes > c
};

/// Dudzinski-Walukiewicz dynamic program over profits.
///
/// Profits are discretized as round(profit * profit_scale); the DP computes,
/// for every reachable integer total profit, the minimal total weight, then
/// returns the largest profit whose minimal weight fits the capacity.
/// The result is optimal with respect to the discretized profits (exact when
/// all profit*profit_scale are integral). Weights stay exact int64
/// throughout. Memory/time: O(num_classes * total_scaled_profit / g), g
/// the gcd of the kept scaled profits.
///
/// Returns feasible=false iff even the minimal-weight selection exceeds the
/// capacity (no valid assignment of one item per class fits).
///
/// Fast paths (transparent to the result, `pick` included): plain-dominance
/// reduction shrinks every class to its undominated items before the DP
/// (safe for exact solvers, unlike the hull); the profit axis is the
/// lattice of multiples of g, the gcd of the kept scaled profits (every
/// sum of them is one), truncated at the LP relaxation upper bound plus
/// rounding slack; and each row keeps only its live, undominated cells. A
/// cell is dropped when no completion of it can fit and reach the HEU-OE
/// answer: by profit alone (the most the remaining classes can add) and by
/// capacity (a Lagrangian bound at the LP's multiplier over the capacity
/// the cell leaves); or when a cell of higher profit in its row weighs no
/// more (a Pareto row). Rows are built as the DP runs, each from the
/// previous row's stored cells, and store min weights only: the pick is
/// rebuilt backward, taking in each class the candidate the full table
/// would have kept first. `ws` supplies reusable buffers; nullptr selects a
/// thread_local workspace.
///
/// A non-null `sink` records per-solve telemetry (docs/ANALYSIS.md §8):
/// mckp.solves / items_total / items_kept counters, the items-pruned,
/// dp-cells (lattice cells computed, before dead and dominated cells are
/// dropped) and dp-kept-cells (cells stored over all rows) histograms, and
/// a solve wall-time histogram. The decision is a pure function of (inst,
/// profit_scale) either way; telemetry never alters the result. A non-null
/// `lp_bound` receives lp_upper_bound(inst), bit for bit, from the state
/// the solve builds anyway.
Selection solve_dp_profits(const Instance& inst,
                           double profit_scale = kDefaultProfitScale,
                           DpWorkspace* ws = nullptr,
                           obs::Sink* sink = nullptr,
                           double* lp_bound = nullptr);

/// HEU-OE style greedy: start from the minimal-weight item of each class,
/// then apply convex-hull upgrade steps in order of decreasing incremental
/// efficiency while they fit; finish with a residual pass that applies any
/// remaining single-class upgrade (not only hull steps) that still fits.
/// A non-null `lp_bound` receives lp_upper_bound(inst), bit for bit.
Selection solve_greedy_heu_oe(const Instance& inst, double* lp_bound = nullptr);

/// Upper bound from the LP relaxation (Dantzig-style on the hulls): greedy
/// ascent value plus the fractional part of the first non-fitting hull step.
/// Any feasible selection's profit is <= this bound.
double lp_upper_bound(const Instance& inst);

/// Dispatch helper. `ws` and `sink` are forwarded to solve_dp_profits for
/// kDpProfits (HEU-OE ignores them). A non-null `lp_bound` receives
/// lp_upper_bound(inst), bit for bit, from the greedy state either solver
/// builds.
Selection solve(const Instance& inst, SolverKind kind,
                double profit_scale = kDefaultProfitScale,
                DpWorkspace* ws = nullptr, obs::Sink* sink = nullptr,
                double* lp_bound = nullptr);

}  // namespace rt::mckp
