#pragma once
// Multiple-Choice Knapsack Problem (MCKP) instance model.
//
// The Offloading Decision Manager (paper Section 5.2, Eq. (5)) reduces the
// selection of estimated worst-case response times to MCKP: one class per
// task, one item per discrete point of the benefit function; exactly one
// item must be chosen per class, total weight bounded by the capacity.
//
// This library is deliberately self-contained: weights are plain int64
// (the caller scales utilizations into fixed-point ticks, keeping the
// capacity comparison exact), profits are doubles.

#include <cstdint>
#include <string>
#include <vector>

namespace rt::mckp {

struct Item {
  std::int64_t weight = 0;  ///< resource consumption; must be >= 0
  double profit = 0.0;      ///< benefit; must be >= 0 and finite
};

/// An MCKP instance. classes[c] lists the mutually exclusive choices of
/// class c; exactly one must be selected.
struct Instance {
  std::vector<std::vector<Item>> classes;
  std::int64_t capacity = 0;

  [[nodiscard]] std::size_t num_classes() const { return classes.size(); }

  /// Throws std::invalid_argument on structural problems (empty class,
  /// negative weight/profit, non-finite profit, negative capacity).
  void validate() const;
};

/// A (candidate) solution: pick[c] indexes into classes[c].
struct Selection {
  std::vector<int> pick;
  double profit = 0.0;
  std::int64_t weight = 0;
  bool feasible = false;  ///< true iff weight <= capacity and pick complete

  [[nodiscard]] std::string to_string() const;
};

/// Recomputes profit/weight/feasible for `pick` against `inst`.
/// Throws std::out_of_range for malformed picks.
Selection evaluate(const Instance& inst, std::vector<int> pick);

/// Per-class preprocessing used by the greedy/LP solvers.
///
/// An item k dominates item j when weight_k <= weight_j and
/// profit_k >= profit_j (with at least one strict); dominated items can
/// never appear in an optimal solution. LP-dominated items lie under the
/// upper convex hull of the (weight, profit) point set and can be skipped
/// by the greedy ascent (but NOT by exact solvers).
struct ReducedClass {
  /// Indices into the original class, sorted by increasing weight, forming
  /// the upper convex hull (strictly increasing weight and profit,
  /// decreasing incremental efficiency).
  std::vector<int> hull;
  /// Indices of items that survive plain dominance (superset of hull).
  std::vector<int> undominated;
};

/// Computes dominance/hull structure for one class. The class must be
/// non-empty.
ReducedClass reduce_class(const std::vector<Item>& cls);

/// Saturating non-negative weight addition (no wraparound on huge weights).
std::int64_t add_weight_sat(std::int64_t a, std::int64_t b);

/// Sentinel for "unreachable" in the DP tables; larger than any valid sum.
inline constexpr std::int64_t kInfWeight = INT64_MAX / 4;

}  // namespace rt::mckp
