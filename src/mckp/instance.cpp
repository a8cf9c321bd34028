#include "mckp/instance.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace rt::mckp {

void Instance::validate() const {
  if (capacity < 0) throw std::invalid_argument("MCKP: negative capacity");
  for (std::size_t c = 0; c < classes.size(); ++c) {
    if (classes[c].empty()) {
      throw std::invalid_argument("MCKP: class " + std::to_string(c) + " is empty");
    }
    for (const auto& item : classes[c]) {
      if (item.weight < 0) throw std::invalid_argument("MCKP: negative weight");
      if (item.weight >= kInfWeight) throw std::invalid_argument("MCKP: weight too large");
      if (!(item.profit >= 0.0) || !std::isfinite(item.profit)) {
        throw std::invalid_argument("MCKP: profit must be finite and >= 0");
      }
    }
  }
}

std::string Selection::to_string() const {
  std::ostringstream oss;
  oss << (feasible ? "feasible" : "INFEASIBLE") << " profit=" << profit
      << " weight=" << weight << " picks=[";
  for (std::size_t i = 0; i < pick.size(); ++i) {
    if (i) oss << ',';
    oss << pick[i];
  }
  oss << ']';
  return oss.str();
}

Selection evaluate(const Instance& inst, std::vector<int> pick) {
  if (pick.size() != inst.classes.size()) {
    throw std::out_of_range("MCKP: pick arity mismatch");
  }
  Selection sel;
  sel.pick = std::move(pick);
  for (std::size_t c = 0; c < inst.classes.size(); ++c) {
    const int j = sel.pick[c];
    if (j < 0 || static_cast<std::size_t>(j) >= inst.classes[c].size()) {
      throw std::out_of_range("MCKP: pick index out of range");
    }
    const Item& item = inst.classes[c][static_cast<std::size_t>(j)];
    sel.weight = add_weight_sat(sel.weight, item.weight);
    sel.profit += item.profit;
  }
  sel.feasible = sel.weight <= inst.capacity;
  return sel;
}

std::int64_t add_weight_sat(std::int64_t a, std::int64_t b) {
  if (a >= kInfWeight || b >= kInfWeight || a > kInfWeight - b) return kInfWeight;
  return a + b;
}

ReducedClass reduce_class(const std::vector<Item>& cls) {
  if (cls.empty()) throw std::invalid_argument("reduce_class: empty class");

  // Sort indices by (weight asc, profit desc): the best item at each weight
  // comes first.
  std::vector<int> order(cls.size());
  for (std::size_t i = 0; i < cls.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto& ia = cls[static_cast<std::size_t>(a)];
    const auto& ib = cls[static_cast<std::size_t>(b)];
    if (ia.weight != ib.weight) return ia.weight < ib.weight;
    if (ia.profit != ib.profit) return ia.profit > ib.profit;
    return a < b;
  });

  ReducedClass out;
  // Plain dominance sweep: keep items with strictly increasing profit.
  double best_profit = -1.0;
  for (const int idx : order) {
    const auto& item = cls[static_cast<std::size_t>(idx)];
    if (item.profit > best_profit) {
      out.undominated.push_back(idx);
      best_profit = item.profit;
    }
  }

  // Upper convex hull over the undominated chain (Graham-scan style):
  // pop while the middle point lies below the segment of its neighbours,
  // i.e. while incremental efficiencies are non-decreasing.
  auto& hull = out.hull;
  for (const int idx : out.undominated) {
    const auto& p = cls[static_cast<std::size_t>(idx)];
    while (hull.size() >= 2) {
      const auto& a = cls[static_cast<std::size_t>(hull[hull.size() - 2])];
      const auto& b = cls[static_cast<std::size_t>(hull.back())];
      // Efficiency of a->b must exceed efficiency of b->p, i.e.
      // (b.p-a.p)/(b.w-a.w) > (p.p-b.p)/(p.w-b.w); cross-multiplied to
      // avoid division (weights strictly increase along the chain).
      const double lhs = (b.profit - a.profit) * static_cast<double>(p.weight - b.weight);
      const double rhs = (p.profit - b.profit) * static_cast<double>(b.weight - a.weight);
      if (lhs > rhs) break;
      hull.pop_back();
    }
    hull.push_back(idx);
  }
  return out;
}

}  // namespace rt::mckp
