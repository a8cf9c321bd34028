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
// A brute-force solver (test oracle), a capacity-grid DP variant, and an
// LP-relaxation upper bound complete the family.

#include "mckp/instance.hpp"

namespace rt::obs {
class Sink;
}  // namespace rt::obs

namespace rt::mckp {

enum class SolverKind {
  kDpProfits,   ///< Dudzinski-Walukiewicz DP (exact up to profit rounding)
  kDpWeights,   ///< DP over a capacity grid (weights rounded UP: sound)
  kHeuOe,       ///< greedy heuristic (feasible, near-optimal)
  kBruteForce,  ///< exact enumeration (tiny instances only)
};

const char* to_string(SolverKind kind);

/// Default profit discretization for the profit DP (benefit units per 1.0
/// of G). The single source of truth: core::OdmConfig and the solver
/// defaults below both reference this constant so they cannot drift.
inline constexpr double kDefaultProfitScale = 1000.0;

/// Reusable scratch space for solve_dp_profits. The profit DP keeps, per
/// class c, only the live band [lo[c], hi[c]] of scaled profits that can
/// still lead to an answer (see solve_dp_profits): two weight rows as wide
/// as the widest band plus one reconstruction row per class, stored back
/// to back (row c starts at row_off[c], cell p at row_off[c] + (p - lo[c])).
/// At paper scale that is still up to megabytes, so the online ODM path
/// (admission control, mode changes) reuses one workspace across calls
/// instead of reallocating. A workspace serves one thread at a time;
/// passing nullptr uses a per-thread (thread_local) workspace, which makes
/// the plain call both allocation-free after warm-up and thread-safe.
/// Contents are opaque scratch: valid only during a solve.
struct DpWorkspace {
  std::vector<std::int64_t> dp;      ///< min weight per band cell, class c-1
  std::vector<std::int64_t> next;    ///< the same for class c (double buffer)
  std::vector<std::int32_t> choice;  ///< reconstruction rows, sum of band widths
  std::vector<std::int64_t> q;       ///< scaled profits of kept items, flat
  std::vector<std::int64_t> wt;      ///< weights of kept items, flat
  std::vector<std::int32_t> item_of; ///< original item index per kept item
  std::vector<std::size_t> class_begin;  ///< m+1 offsets into q/wt/item_of
  std::vector<std::int64_t> lo;      ///< lowest live scaled profit per class
  std::vector<std::int64_t> hi;      ///< highest live scaled profit per class
  std::vector<std::size_t> row_off;  ///< m+1 offsets of the rows in choice
};

/// Exact enumeration. Complexity is the product of class sizes; intended as
/// a test oracle for small instances. Throws std::invalid_argument when the
/// search space exceeds ~20M combinations.
Selection solve_brute_force(const Instance& inst);

/// Dudzinski-Walukiewicz dynamic program over profits.
///
/// Profits are discretized as round(profit * profit_scale); the DP computes,
/// for every reachable integer total profit, the minimal total weight, then
/// returns the largest profit whose minimal weight fits the capacity.
/// The result is optimal with respect to the discretized profits (exact when
/// all profit*profit_scale are integral). Weights stay exact int64
/// throughout. Memory/time: O(num_classes * total_scaled_profit).
///
/// Returns feasible=false iff even the minimal-weight selection exceeds the
/// capacity (no valid assignment of one item per class fits).
///
/// Fast paths (transparent to the result, `pick` included): plain-dominance
/// reduction shrinks every class to its undominated items before the DP
/// (safe for exact solvers, unlike the hull); the profit axis is truncated
/// at the LP relaxation upper bound plus rounding slack; and each class
/// keeps only its live band of profits -- between the prefix sums of the
/// class minima and maxima, and no lower than the HEU-OE answer minus the
/// most the remaining classes can add. `ws` supplies reusable buffers;
/// nullptr selects a thread_local workspace.
///
/// A non-null `sink` records per-solve telemetry (docs/ANALYSIS.md §8):
/// mckp.solves / items_total / items_kept counters, the items-pruned and
/// dp-cells (cells in the live band) histograms, and a solve wall-time
/// histogram. The decision is a pure function of (inst, profit_scale)
/// either way; telemetry never alters the result.
Selection solve_dp_profits(const Instance& inst,
                           double profit_scale = kDefaultProfitScale,
                           DpWorkspace* ws = nullptr,
                           obs::Sink* sink = nullptr);

/// DP over a discretized capacity axis with `grid` cells. Item weights are
/// rounded UP to the grid, so any selection reported feasible is truly
/// feasible (sound), but near-boundary selections may be missed
/// (incomplete). Useful as a fast approximation and as an ablation of the
/// profit-DP design choice.
Selection solve_dp_weights(const Instance& inst, std::size_t grid = 10000);

/// HEU-OE style greedy: start from the minimal-weight item of each class,
/// then apply convex-hull upgrade steps in order of decreasing incremental
/// efficiency while they fit; finish with a residual pass that applies any
/// remaining single-class upgrade (not only hull steps) that still fits.
Selection solve_greedy_heu_oe(const Instance& inst);

/// Upper bound from the LP relaxation (Dantzig-style on the hulls): greedy
/// ascent value plus the fractional part of the first non-fitting hull step.
/// Any feasible selection's profit is <= this bound.
double lp_upper_bound(const Instance& inst);

/// Dispatch helper. `ws` and `sink` are forwarded to solve_dp_profits for
/// kDpProfits (other solvers ignore them).
Selection solve(const Instance& inst, SolverKind kind,
                double profit_scale = kDefaultProfitScale,
                DpWorkspace* ws = nullptr, obs::Sink* sink = nullptr);

}  // namespace rt::mckp
