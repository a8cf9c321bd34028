#include "mckp/solvers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/sink.hpp"
#include "obs/timer.hpp"

namespace rt::mckp {

namespace {

/// Minimal-total-weight selection (cheapest item per class); the canonical
/// fallback when no feasible selection exists.
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

const char* to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::kDpProfits: return "dp-profits";
    case SolverKind::kDpWeights: return "dp-weights";
    case SolverKind::kHeuOe: return "heu-oe";
    case SolverKind::kBruteForce: return "brute-force";
  }
  return "unknown";
}

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

Selection solve_dp_weights(const Instance& inst, std::size_t grid) {
  inst.validate();
  if (grid == 0) throw std::invalid_argument("solve_dp_weights: zero grid");
  const std::size_t m = inst.classes.size();
  if (m == 0) {
    Selection empty;
    empty.feasible = true;
    return empty;
  }
  if (static_cast<double>(grid + 1) * static_cast<double>(m) > 4e8) {
    throw std::invalid_argument("solve_dp_weights: grid too large");
  }

  // Item weight in grid units, rounded UP => any reported-feasible
  // selection is truly feasible.
  const std::int64_t cap = inst.capacity;
  auto to_units = [&](std::int64_t w) -> std::int64_t {
    if (w == 0) return 0;
    if (cap == 0) return static_cast<std::int64_t>(grid) + 1;  // never fits
    const auto g = static_cast<__int128>(grid);
    const __int128 units = (static_cast<__int128>(w) * g + cap - 1) / cap;
    return units > static_cast<__int128>(grid) + 1
               ? static_cast<std::int64_t>(grid) + 1
               : static_cast<std::int64_t>(units);
  };

  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<double> dp(grid + 1, kNegInf);  // dp[u]: max profit, units == u
  std::vector<std::vector<std::int32_t>> choice(
      m, std::vector<std::int32_t>(grid + 1, -1));

  for (std::size_t j = 0; j < inst.classes[0].size(); ++j) {
    const std::int64_t u = to_units(inst.classes[0][j].weight);
    if (u > static_cast<std::int64_t>(grid)) continue;
    const auto uu = static_cast<std::size_t>(u);
    if (inst.classes[0][j].profit > dp[uu]) {
      dp[uu] = inst.classes[0][j].profit;
      choice[0][uu] = static_cast<std::int32_t>(j);
    }
  }

  std::vector<double> next(grid + 1);
  for (std::size_t c = 1; c < m; ++c) {
    std::fill(next.begin(), next.end(), kNegInf);
    for (std::size_t u = 0; u <= grid; ++u) {
      if (dp[u] == kNegInf) continue;
      for (std::size_t j = 0; j < inst.classes[c].size(); ++j) {
        const std::int64_t du = to_units(inst.classes[c][j].weight);
        const std::int64_t tgt = static_cast<std::int64_t>(u) + du;
        if (tgt > static_cast<std::int64_t>(grid)) continue;
        const auto t = static_cast<std::size_t>(tgt);
        const double p = dp[u] + inst.classes[c][j].profit;
        if (p > next[t]) {
          next[t] = p;
          choice[c][t] = static_cast<std::int32_t>(j);
        }
      }
    }
    dp.swap(next);
  }

  std::ptrdiff_t best_u = -1;
  double best_profit = kNegInf;
  for (std::size_t u = 0; u <= grid; ++u) {
    if (dp[u] > best_profit) {
      best_profit = dp[u];
      best_u = static_cast<std::ptrdiff_t>(u);
    }
  }
  if (best_u < 0) return min_weight_selection(inst);

  std::vector<int> pick(m, -1);
  auto u = static_cast<std::size_t>(best_u);
  for (std::size_t c = m; c-- > 0;) {
    const std::int32_t j = choice[c][u];
    if (j < 0) throw std::logic_error("solve_dp_weights: broken DP path");
    pick[c] = j;
    u -= static_cast<std::size_t>(to_units(
        inst.classes[c][static_cast<std::size_t>(j)].weight));
  }
  return evaluate(inst, std::move(pick));
}

namespace {

struct HullStep {
  std::size_t cls;
  std::size_t hull_pos;  // applying moves the class from hull_pos-1 to hull_pos
  std::int64_t dw;
  double dp;
  double efficiency;
};

/// The base selection (cheapest hull item per class) and the list of hull
/// upgrade steps sorted by decreasing efficiency, preserving per-class
/// order on ties. Shared by HEU-OE, the LP bound and the profit DP, which
/// needs both and reduces each class once for all three.
struct GreedyState {
  std::vector<ReducedClass> reduced;
  Selection base;
  std::vector<HullStep> steps;
};

GreedyState prepare_greedy(const Instance& inst,
                           std::vector<ReducedClass> reduced) {
  GreedyState st;
  st.reduced = std::move(reduced);
  std::vector<int> pick;
  pick.reserve(inst.classes.size());
  for (const auto& red : st.reduced) pick.push_back(red.hull.front());
  st.base = evaluate(inst, std::move(pick));

  for (std::size_t c = 0; c < inst.classes.size(); ++c) {
    const auto& hull = st.reduced[c].hull;
    for (std::size_t k = 1; k < hull.size(); ++k) {
      const auto& prev = inst.classes[c][static_cast<std::size_t>(hull[k - 1])];
      const auto& cur = inst.classes[c][static_cast<std::size_t>(hull[k])];
      HullStep s;
      s.cls = c;
      s.hull_pos = k;
      s.dw = cur.weight - prev.weight;
      s.dp = cur.profit - prev.profit;
      s.efficiency = s.dp / static_cast<double>(s.dw);
      st.steps.push_back(s);
    }
  }
  std::stable_sort(st.steps.begin(), st.steps.end(),
                   [](const HullStep& a, const HullStep& b) {
                     if (a.efficiency != b.efficiency) {
                       return a.efficiency > b.efficiency;
                     }
                     if (a.cls != b.cls) return a.cls < b.cls;
                     return a.hull_pos < b.hull_pos;
                   });
  return st;
}

GreedyState prepare_greedy(const Instance& inst) {
  std::vector<ReducedClass> reduced;
  reduced.reserve(inst.classes.size());
  for (const auto& cls : inst.classes) reduced.push_back(reduce_class(cls));
  return prepare_greedy(inst, std::move(reduced));
}

/// HEU-OE on a prepared state whose base selection fits.
Selection greedy_heu_oe(const Instance& inst, const GreedyState& st) {
  std::vector<std::size_t> pos(inst.classes.size(), 0);
  std::vector<int> pick = st.base.pick;
  std::int64_t weight = st.base.weight;

  // Phase 1: efficiency-ordered hull ascent.
  for (const auto& s : st.steps) {
    if (pos[s.cls] + 1 != s.hull_pos) continue;  // an earlier step was skipped
    if (add_weight_sat(weight, s.dw) > inst.capacity) continue;
    weight += s.dw;
    pos[s.cls] = s.hull_pos;
    pick[s.cls] = st.reduced[s.cls].hull[s.hull_pos];
  }

  // Phase 2 ("OE" residual pass): keep applying the best single-class swap
  // to any undominated item (not only hull items) that still fits. Profit
  // strictly increases each round, so this terminates.
  bool improved = true;
  while (improved) {
    improved = false;
    double best_gain = 0.0;
    std::size_t best_cls = 0;
    int best_item = -1;
    std::int64_t best_dw = 0;
    for (std::size_t c = 0; c < inst.classes.size(); ++c) {
      const auto& cur = inst.classes[c][static_cast<std::size_t>(pick[c])];
      for (const int j : st.reduced[c].undominated) {
        const auto& cand = inst.classes[c][static_cast<std::size_t>(j)];
        const double gain = cand.profit - cur.profit;
        if (gain <= best_gain) continue;
        const std::int64_t dw = cand.weight - cur.weight;
        if (dw > 0 && add_weight_sat(weight, dw) > inst.capacity) continue;
        best_gain = gain;
        best_cls = c;
        best_item = j;
        best_dw = dw;
      }
    }
    if (best_item >= 0) {
      pick[best_cls] = best_item;
      weight += best_dw;
      improved = true;
    }
  }
  return evaluate(inst, std::move(pick));
}

/// Dantzig bound on a prepared state whose base selection fits.
double lp_bound(const Instance& inst, const GreedyState& st) {
  std::vector<std::size_t> pos(inst.classes.size(), 0);
  double profit = st.base.profit;
  std::int64_t remaining = inst.capacity - st.base.weight;
  for (const auto& s : st.steps) {
    if (pos[s.cls] + 1 != s.hull_pos) continue;
    if (s.dw <= remaining) {
      remaining -= s.dw;
      profit += s.dp;
      pos[s.cls] = s.hull_pos;
    } else {
      // First non-fitting step taken fractionally: Dantzig bound.
      profit += s.efficiency * static_cast<double>(remaining);
      return profit;
    }
  }
  return profit;
}

}  // namespace

Selection solve_greedy_heu_oe(const Instance& inst) {
  inst.validate();
  if (inst.classes.empty()) {
    Selection empty;
    empty.feasible = true;
    return empty;
  }
  const GreedyState st = prepare_greedy(inst);
  if (!st.base.feasible) return st.base;  // even the cheapest picks overflow
  return greedy_heu_oe(inst, st);
}

double lp_upper_bound(const Instance& inst) {
  inst.validate();
  if (inst.classes.empty()) return 0.0;
  const GreedyState st = prepare_greedy(inst);
  if (!st.base.feasible) return -std::numeric_limits<double>::infinity();
  return lp_bound(inst, st);
}

Selection solve_dp_profits(const Instance& inst, double profit_scale,
                           DpWorkspace* ws, obs::Sink* sink) {
  inst.validate();
  if (!(profit_scale > 0.0)) {
    throw std::invalid_argument("solve_dp_profits: profit_scale must be > 0");
  }
  obs::ScopedTimer solve_timer(
      sink != nullptr ? &sink->registry().histogram("mckp.solve_ns") : nullptr);
  const std::size_t m = inst.classes.size();
  if (m == 0) {
    Selection empty;
    empty.feasible = true;
    return empty;
  }

  thread_local DpWorkspace shared_ws;
  DpWorkspace& w = ws != nullptr ? *ws : shared_ws;
  const auto scaled = [profit_scale](const Item& item) {
    return static_cast<std::int64_t>(std::llround(item.profit * profit_scale));
  };

  // Plain-dominance reduction + profit discretization. A dominated item
  // (another item with <= weight and >= profit, one strict) can never
  // improve the DP's final (max fitting profit, min weight) answer, so the
  // DP only visits the undominated subset of each class. The reduced
  // classes also feed the LP bound and the greedy below.
  std::vector<ReducedClass> reduced;
  reduced.reserve(m);
  w.q.clear();
  w.wt.clear();
  w.item_of.clear();
  w.class_begin.assign(1, 0);
  w.lo.resize(m);
  w.hi.resize(m);
  std::int64_t total_q = 0;
  std::int64_t min_weight_sum = 0;
  for (std::size_t c = 0; c < m; ++c) {
    reduced.push_back(reduce_class(inst.classes[c]));
    std::int64_t qmin = std::numeric_limits<std::int64_t>::max();
    std::int64_t qmax = 0;
    for (const int idx : reduced.back().undominated) {
      const Item& item = inst.classes[c][static_cast<std::size_t>(idx)];
      const std::int64_t v = scaled(item);
      w.q.push_back(v);
      w.wt.push_back(item.weight);
      w.item_of.push_back(idx);
      qmin = std::min(qmin, v);
      qmax = std::max(qmax, v);
    }
    w.class_begin.push_back(w.q.size());
    w.lo[c] = qmin;
    w.hi[c] = qmax;
    // undominated.front() is the min-weight item of the class.
    min_weight_sum = add_weight_sat(
        min_weight_sum,
        inst.classes[c][static_cast<std::size_t>(reduced.back().undominated.front())]
            .weight);
    total_q += qmax;
  }
  if (sink != nullptr) {
    std::size_t items_total = 0;
    for (const auto& cls : inst.classes) items_total += cls.size();
    auto& reg = sink->registry();
    reg.counter("mckp.solves").inc();
    reg.counter("mckp.items_total").inc(items_total);
    reg.counter("mckp.items_kept").inc(w.q.size());
    reg.histogram("mckp.items_pruned")
        .add(static_cast<std::int64_t>(items_total - w.q.size()));
  }
  if (min_weight_sum > inst.capacity) return min_weight_selection(inst);

  // Truncate the profit axis with the LP relaxation (Dantzig) bound: a
  // feasible selection's true profit is <= ub, so its scaled profit is
  // <= ub*scale + m/2 (each llround adds at most 0.5). Every prefix sum of
  // a feasible selection stays under that cap (profits are >= 0), so DP
  // cells above it can only be reached by provably infeasible selections.
  const GreedyState st = prepare_greedy(inst, std::move(reduced));
  std::int64_t axis = total_q;
  const double ub = lp_bound(inst, st);
  // min_weight_sum fits, so the bound is finite; guard anyway against
  // pathological scales before the double -> int64 conversion.
  const double scaled_ub = ub * profit_scale + 0.5 * static_cast<double>(m) + 1.0;
  if (std::isfinite(scaled_ub) && scaled_ub < static_cast<double>(total_q) &&
      scaled_ub < 9e15) {
    axis = std::max<std::int64_t>(
        0, static_cast<std::int64_t>(std::llround(scaled_ub)));
  }
  if (axis > 50'000'000 ||
      static_cast<double>(axis + 1) * static_cast<double>(m) > 4e8) {
    throw std::invalid_argument(
        "solve_dp_profits: scaled profit space too large; lower profit_scale");
  }

  // Lower cut: the HEU-OE selection fits and picks only undominated
  // items, so its scaled profit lb is a fitting cell of the last row and
  // the answer is >= lb. A cell (c, p) with p + sum_{c'>c} qmax[c'] < lb
  // reaches no cell >= lb, and neither does any cell it feeds; every kept
  // cell's predecessors are kept, so kept cells get the same minimum
  // weight and the same first-wins choice as in the full table. A greedy
  // profit above the LP cap would contradict the bound; cut nothing then.
  std::int64_t lb = 0;
  const Selection greedy = greedy_heu_oe(inst, st);
  if (greedy.feasible) {
    for (std::size_t c = 0; c < m; ++c) {
      lb += scaled(inst.classes[c][static_cast<std::size_t>(greedy.pick[c])]);
    }
    if (lb > axis) lb = 0;
  }

  // Live band of class c: [lo, hi] = [max(sum_{<=c} qmin, lb - sum_{>c}
  // qmax), min(axis, sum_{<=c} qmax)]; lo/hi arrive holding the class's
  // own qmin/qmax. Row c of the choice table stores its band at
  // row_off[c]; an empty band (lo > hi) takes no cells.
  w.row_off.assign(1, 0);
  std::int64_t prefix_qmin = 0;
  std::int64_t prefix_qmax = 0;
  std::size_t width_max = 0;
  for (std::size_t c = 0; c < m; ++c) {
    prefix_qmin += w.lo[c];
    prefix_qmax += w.hi[c];
    w.lo[c] = std::max(prefix_qmin, lb - (total_q - prefix_qmax));
    w.hi[c] = std::min(axis, prefix_qmax);
    const auto width = static_cast<std::size_t>(
        std::max<std::int64_t>(0, w.hi[c] - w.lo[c] + 1));
    w.row_off.push_back(w.row_off.back() + width);
    width_max = std::max(width_max, width);
  }
  if (sink != nullptr) {
    sink->registry().histogram("mckp.dp_cells")
        .add(static_cast<std::int64_t>(w.row_off.back()));
  }

  // dp[i] / next[i]: min weight reaching scaled profit lo + i after the
  // previous / current class. choice[row_off[c] + (p - lo[c])]: flat
  // kept-item index picked in class c on the min-weight path reaching p
  // after classes 0..c; -1 = unreachable.
  w.dp.assign(width_max, kInfWeight);
  w.next.resize(width_max);
  w.choice.assign(w.row_off.back(), -1);

  for (std::size_t k = w.class_begin[0]; k < w.class_begin[1]; ++k) {
    if (w.q[k] < w.lo[0] || w.q[k] > w.hi[0]) continue;
    const auto i = static_cast<std::size_t>(w.q[k] - w.lo[0]);
    if (w.wt[k] < w.dp[i]) {
      w.dp[i] = w.wt[k];
      w.choice[i] = static_cast<std::int32_t>(k);
    }
  }

  // Inner loop: both dp[i] and wt[k] are below kInfWeight (validate()), so
  // their sum cannot overflow, and a sum >= kInfWeight never beats a
  // next[] entry (<= kInfWeight) -- the same outcome as add_weight_sat.
  const std::int64_t* const q = w.q.data();
  const std::int64_t* const wt = w.wt.data();
  for (std::size_t c = 1; c < m; ++c) {
    const std::int64_t lo = w.lo[c];
    const std::int64_t hi = w.hi[c];
    const std::int64_t prev_lo = w.lo[c - 1];
    const std::size_t prev_width = w.row_off[c] - w.row_off[c - 1];
    const std::size_t k_begin = w.class_begin[c];
    const std::size_t k_end = w.class_begin[c + 1];
    const std::int64_t* const dp = w.dp.data();
    std::int64_t* const next = w.next.data();
    std::fill(next, next + (w.row_off[c + 1] - w.row_off[c]), kInfWeight);
    std::int32_t* const row = w.choice.data() + w.row_off[c];
    for (std::size_t i = 0; i < prev_width; ++i) {
      const std::int64_t base = dp[i];
      if (base >= kInfWeight) continue;
      const std::int64_t p = prev_lo + static_cast<std::int64_t>(i);
      for (std::size_t k = k_begin; k < k_end; ++k) {
        const std::int64_t tgt = p + q[k];
        if (tgt < lo || tgt > hi) continue;
        const auto j = static_cast<std::size_t>(tgt - lo);
        const std::int64_t weight = base + wt[k];
        if (weight < next[j]) {
          next[j] = weight;
          row[j] = static_cast<std::int32_t>(k);
        }
      }
    }
    w.dp.swap(w.next);
  }

  // Largest scaled profit whose minimal weight fits the capacity.
  const std::size_t last_width = w.row_off[m] - w.row_off[m - 1];
  std::int64_t best_p = -1;
  for (std::size_t i = 0; i < last_width; ++i) {
    if (w.dp[i] <= inst.capacity) {
      best_p = w.lo[m - 1] + static_cast<std::int64_t>(i);
    }
  }
  if (best_p < 0) return min_weight_selection(inst);

  // Reconstruct.
  std::vector<int> pick(m, -1);
  std::int64_t p = best_p;
  for (std::size_t c = m; c-- > 0;) {
    const std::int32_t k =
        p < w.lo[c] || p > w.hi[c]
            ? -1
            : w.choice[w.row_off[c] + static_cast<std::size_t>(p - w.lo[c])];
    if (k < 0) throw std::logic_error("solve_dp_profits: broken DP path");
    pick[c] = w.item_of[static_cast<std::size_t>(k)];
    p -= w.q[static_cast<std::size_t>(k)];
  }
  return evaluate(inst, std::move(pick));
}

Selection solve(const Instance& inst, SolverKind kind, double profit_scale,
                DpWorkspace* ws, obs::Sink* sink) {
  switch (kind) {
    case SolverKind::kDpProfits:
      return solve_dp_profits(inst, profit_scale, ws, sink);
    case SolverKind::kDpWeights: return solve_dp_weights(inst);
    case SolverKind::kHeuOe: return solve_greedy_heu_oe(inst);
    case SolverKind::kBruteForce: return solve_brute_force(inst);
  }
  throw std::invalid_argument("solve: unknown solver kind");
}

}  // namespace rt::mckp
