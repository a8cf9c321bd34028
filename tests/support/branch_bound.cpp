#include "support/branch_bound.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace rt::mckp {

namespace {

struct ClassView {
  int original_index = 0;
  /// Undominated items sorted by weight ascending (profit ascending too).
  std::vector<int> items;
  /// Cheapest weight and best profit in the class (suffix bound helpers).
  std::int64_t min_weight = 0;
  double max_profit = 0.0;
  double min_weight_profit = 0.0;  ///< profit of the cheapest choice
};

class Solver {
 public:
  Solver(const Instance& inst, std::uint64_t node_budget)
      : inst_(inst), node_budget_(node_budget) {}

  Selection run(BranchBoundStats* stats) {
    const std::size_t m = inst_.classes.size();
    views_.reserve(m);
    for (std::size_t c = 0; c < m; ++c) {
      ClassView v;
      v.original_index = static_cast<int>(c);
      const ReducedClass red = reduce_class(inst_.classes[c]);
      v.items = red.undominated;  // weight asc, profit asc
      v.min_weight = inst_.classes[c][static_cast<std::size_t>(v.items.front())].weight;
      v.min_weight_profit =
          inst_.classes[c][static_cast<std::size_t>(v.items.front())].profit;
      v.max_profit =
          inst_.classes[c][static_cast<std::size_t>(v.items.back())].profit;
      views_.push_back(std::move(v));
    }
    // Branch on the widest profit spread first: decisions there move the
    // bound the most.
    std::stable_sort(views_.begin(), views_.end(),
                     [](const ClassView& a, const ClassView& b) {
                       return (a.max_profit - a.min_weight_profit) >
                              (b.max_profit - b.min_weight_profit);
                     });

    // Suffix aggregates for pruning.
    suffix_min_weight_.assign(m + 1, 0);
    suffix_max_profit_.assign(m + 1, 0.0);
    for (std::size_t c = m; c-- > 0;) {
      suffix_min_weight_[c] =
          add_weight_sat(suffix_min_weight_[c + 1], views_[c].min_weight);
      suffix_max_profit_[c] = suffix_max_profit_[c + 1] + views_[c].max_profit;
    }

    // Incumbent: the minimal-weight selection if feasible.
    pick_.assign(m, -1);
    best_profit_ = -std::numeric_limits<double>::infinity();
    best_pick_.assign(m, -1);
    if (suffix_min_weight_[0] <= inst_.capacity) {
      for (std::size_t c = 0; c < m; ++c) best_pick_[c] = views_[c].items.front();
      double p = 0.0;
      for (std::size_t c = 0; c < m; ++c) p += views_[c].min_weight_profit;
      best_profit_ = p;
      found_ = true;
    }

    dfs(0, 0, 0.0);

    if (stats != nullptr) {
      stats->nodes_visited = nodes_;
      stats->nodes_pruned = pruned_;
    }
    if (!found_) {
      // No feasible assignment at all: report the cheapest one.
      std::vector<int> fallback(m, 0);
      for (std::size_t c = 0; c < m; ++c) {
        fallback[static_cast<std::size_t>(views_[c].original_index)] =
            views_[c].items.front();
      }
      return evaluate(inst_, std::move(fallback));
    }
    std::vector<int> out(m, 0);
    for (std::size_t c = 0; c < m; ++c) {
      out[static_cast<std::size_t>(views_[c].original_index)] = best_pick_[c];
    }
    return evaluate(inst_, std::move(out));
  }

 private:
  void dfs(std::size_t c, std::int64_t weight, double profit) {
    if (++nodes_ > node_budget_) {
      throw std::runtime_error("solve_branch_bound: node budget exhausted");
    }
    if (c == views_.size()) {
      if (profit > best_profit_) {
        best_profit_ = profit;
        best_pick_ = pick_;
        found_ = true;
      }
      return;
    }
    // Prune: even the perfect suffix cannot beat the incumbent, or even the
    // cheapest suffix does not fit.
    if (profit + suffix_max_profit_[c] <= best_profit_ + kEps) {
      ++pruned_;
      return;
    }
    if (add_weight_sat(weight, suffix_min_weight_[c]) > inst_.capacity) {
      ++pruned_;
      return;
    }
    const auto& cls = inst_.classes[static_cast<std::size_t>(views_[c].original_index)];
    // Most profitable first: good incumbents early, stronger pruning later.
    const auto& items = views_[c].items;
    for (std::size_t k = items.size(); k-- > 0;) {
      const int j = items[k];
      const Item& item = cls[static_cast<std::size_t>(j)];
      const std::int64_t w = add_weight_sat(weight, item.weight);
      if (w > inst_.capacity) continue;  // items sorted by weight: keep trying lighter
      pick_[c] = j;
      dfs(c + 1, w, profit + item.profit);
    }
    pick_[c] = -1;
  }

  static constexpr double kEps = 1e-12;

  const Instance& inst_;
  std::uint64_t node_budget_;
  std::vector<ClassView> views_;
  std::vector<std::int64_t> suffix_min_weight_;
  std::vector<double> suffix_max_profit_;
  std::vector<int> pick_;
  std::vector<int> best_pick_;
  double best_profit_ = 0.0;
  bool found_ = false;
  std::uint64_t nodes_ = 0;
  std::uint64_t pruned_ = 0;
};

}  // namespace

Selection solve_branch_bound(const Instance& inst, BranchBoundStats* stats,
                             std::uint64_t node_budget) {
  inst.validate();
  if (inst.classes.empty()) {
    Selection empty;
    empty.feasible = true;
    return empty;
  }
  Solver solver(inst, node_budget);
  return solver.run(stats);
}

}  // namespace rt::mckp
