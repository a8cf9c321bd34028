#include "support/brute_force.hpp"

#include <stdexcept>

namespace rt::mckp {

namespace {

/// Cheapest item per class, the more profitable one on a weight tie.
Selection min_weight_selection(const Instance& inst) {
  std::vector<int> pick;
  pick.reserve(inst.classes.size());
  for (const auto& cls : inst.classes) {
    int best = 0;
    for (std::size_t j = 1; j < cls.size(); ++j) {
      const auto& it = cls[j];
      const auto& bi = cls[static_cast<std::size_t>(best)];
      if (it.weight < bi.weight ||
          (it.weight == bi.weight && it.profit > bi.profit)) {
        best = static_cast<int>(j);
      }
    }
    pick.push_back(best);
  }
  return evaluate(inst, std::move(pick));
}

}  // namespace

Selection solve_brute_force(const Instance& inst) {
  inst.validate();
  double space = 1.0;
  for (const auto& cls : inst.classes) space *= static_cast<double>(cls.size());
  if (space > 2e7) {
    throw std::invalid_argument("solve_brute_force: search space too large");
  }
  if (inst.classes.empty()) {
    Selection empty;
    empty.feasible = true;
    return empty;
  }

  const std::size_t m = inst.classes.size();
  std::vector<int> pick(m, 0);
  Selection best;
  best.feasible = false;
  best.profit = -1.0;
  bool found = false;

  for (;;) {
    Selection cur = evaluate(inst, pick);
    if (cur.feasible &&
        (!found || cur.profit > best.profit ||
         (cur.profit == best.profit && cur.weight < best.weight))) {
      best = cur;
      found = true;
    }
    // Odometer increment.
    std::size_t c = 0;
    while (c < m) {
      if (++pick[c] < static_cast<int>(inst.classes[c].size())) break;
      pick[c] = 0;
      ++c;
    }
    if (c == m) break;
  }
  if (!found) return min_weight_selection(inst);
  return best;
}

}  // namespace rt::mckp
