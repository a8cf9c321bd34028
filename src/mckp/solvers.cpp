#include "mckp/solvers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
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
    case SolverKind::kHeuOe: return "heu-oe";
  }
  return "unknown";
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

/// The LP relaxation's value and its multiplier: the efficiency of the
/// first hull step that does not fit (the critical item), 0 if all fit.
struct LpBound {
  double value = 0.0;
  double lambda = 0.0;
};

/// Dantzig bound on a prepared state whose base selection fits.
LpBound lp_bound(const Instance& inst, const GreedyState& st) {
  std::vector<std::size_t> pos(inst.classes.size(), 0);
  LpBound lp{st.base.profit, 0.0};
  std::int64_t remaining = inst.capacity - st.base.weight;
  for (const auto& s : st.steps) {
    if (pos[s.cls] + 1 != s.hull_pos) continue;
    if (s.dw <= remaining) {
      remaining -= s.dw;
      lp.value += s.dp;
      pos[s.cls] = s.hull_pos;
    } else {
      // First non-fitting step taken fractionally: Dantzig bound.
      lp.value += s.efficiency * static_cast<double>(remaining);
      lp.lambda = s.efficiency;
      return lp;
    }
  }
  return lp;
}

}  // namespace

Selection solve_greedy_heu_oe(const Instance& inst, double* lp_bound_out) {
  inst.validate();
  if (inst.classes.empty()) {
    if (lp_bound_out != nullptr) *lp_bound_out = 0.0;
    Selection empty;
    empty.feasible = true;
    return empty;
  }
  const GreedyState st = prepare_greedy(inst);
  if (!st.base.feasible) {  // even the cheapest picks overflow
    if (lp_bound_out != nullptr) {
      *lp_bound_out = -std::numeric_limits<double>::infinity();
    }
    return st.base;
  }
  if (lp_bound_out != nullptr) *lp_bound_out = lp_bound(inst, st).value;
  return greedy_heu_oe(inst, st);
}

double lp_upper_bound(const Instance& inst) {
  inst.validate();
  if (inst.classes.empty()) return 0.0;
  const GreedyState st = prepare_greedy(inst);
  if (!st.base.feasible) return -std::numeric_limits<double>::infinity();
  return lp_bound(inst, st).value;
}

Selection solve_dp_profits(const Instance& inst, double profit_scale,
                           DpWorkspace* ws, obs::Sink* sink,
                           double* lp_bound_out) {
  inst.validate();
  if (!(profit_scale > 0.0)) {
    throw std::invalid_argument("solve_dp_profits: profit_scale must be > 0");
  }
  obs::ScopedTimer solve_timer(
      sink != nullptr ? &sink->registry().histogram("mckp.solve_ns") : nullptr);
  const std::size_t m = inst.classes.size();
  if (m == 0) {
    if (lp_bound_out != nullptr) *lp_bound_out = 0.0;
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
  std::int64_t total_q = 0;
  std::int64_t min_weight_sum = 0;
  std::int64_t g = 0;  // gcd of the kept scaled profits
  for (std::size_t c = 0; c < m; ++c) {
    reduced.push_back(reduce_class(inst.classes[c]));
    for (const int idx : reduced.back().undominated) {
      const Item& item = inst.classes[c][static_cast<std::size_t>(idx)];
      const std::int64_t v = scaled(item);
      w.q.push_back(v);
      w.wt.push_back(item.weight);
      w.item_of.push_back(idx);
      g = std::gcd(g, v);
    }
    w.class_begin.push_back(w.q.size());
    // undominated.front() is the min-weight item of the class.
    min_weight_sum = add_weight_sat(
        min_weight_sum,
        inst.classes[c][static_cast<std::size_t>(reduced.back().undominated.front())]
            .weight);
    // Undominated items ascend in profit, so q is non-decreasing within a
    // class: its last entry is the class's largest scaled profit.
    total_q += w.q.back();
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
  if (min_weight_sum > inst.capacity) {
    if (lp_bound_out != nullptr) {
      *lp_bound_out = -std::numeric_limits<double>::infinity();
    }
    return min_weight_selection(inst);
  }

  // Truncate the profit axis with the LP relaxation (Dantzig) bound: a
  // feasible selection's true profit is <= ub, so its scaled profit is
  // <= ub*scale + m/2 (each llround adds at most 0.5). Every prefix sum of
  // a feasible selection stays under that cap (profits are >= 0), so DP
  // cells above it can only be reached by provably infeasible selections.
  const GreedyState st = prepare_greedy(inst, std::move(reduced));
  std::int64_t axis = total_q;
  const LpBound lp = lp_bound(inst, st);
  if (lp_bound_out != nullptr) *lp_bound_out = lp.value;
  // min_weight_sum fits, so the bound is finite; guard anyway against
  // pathological scales before the double -> int64 conversion.
  const double scaled_ub =
      lp.value * profit_scale + 0.5 * static_cast<double>(m) + 1.0;
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
  // reaches no cell >= lb. A greedy profit above the LP cap would
  // contradict the bound; cut nothing then.
  std::int64_t lb = 0;
  const Selection greedy = greedy_heu_oe(inst, st);
  if (greedy.feasible) {
    for (std::size_t c = 0; c < m; ++c) {
      lb += scaled(inst.classes[c][static_cast<std::size_t>(greedy.pick[c])]);
    }
    if (lb > axis) lb = 0;
  }

  // Capacity cut. For the LP multiplier lambda >= 0 and any items of
  // classes > c weighing at most x in total, weak duality gives
  //   sum profit <= S[c+1] + lambda * x,
  //   S[c] = sum_{c' >= c} max_k (profit_k - lambda * weight_k),
  // and llround adds at most 1/2 per class. So a cell (c, p) of minimum
  // weight W is dead -- no completion fits and reaches lb -- when
  // W > capacity or p + reach[c] + slope * (capacity - W) < lb, where
  // reach[c] + slope * x = scale * (S[c+1] + lambda * x) + (m-1-c)/2 +
  // margin. The margin covers the floating-point error of S and of
  // lambda * x, so it is sized against the magnitudes summed, not against
  // S, which can cancel to near zero: eps * scale * (T[c+1] + lambda * x)
  // with T[c] = sum_{c' >= c} max_k (profit_k + lambda * weight_k) and
  // eps = (m+16) machine epsilons, plus one scaled unit.
  const double eps =
      static_cast<double>(m + 16) * std::numeric_limits<double>::epsilon();
  const double slope = profit_scale * lp.lambda * (1.0 + eps);
  w.reach.resize(m);
  double s_sum = 0.0;
  double t_sum = 0.0;
  for (std::size_t c = m; c-- > 0;) {
    w.reach[c] = profit_scale * (s_sum + eps * t_sum) +
                 0.5 * static_cast<double>(m - 1 - c) + 1.0;
    double best = -std::numeric_limits<double>::infinity();
    double magnitude = 0.0;
    for (std::size_t k = w.class_begin[c]; k < w.class_begin[c + 1]; ++k) {
      const double profit =
          inst.classes[c][static_cast<std::size_t>(w.item_of[k])].profit;
      const double priced = lp.lambda * static_cast<double>(w.wt[k]);
      best = std::max(best, profit - priced);
      magnitude = std::max(magnitude, profit + priced);
    }
    s_sum += best;
    t_sum += magnitude;
  }

  // The profit lattice. Every sum of kept scaled profits is a multiple of
  // g, so the DP runs on p = g * j and never visits the cells between
  // (Fig. 3's ladders step by 0.1 at scale 1000: g = 100). From here on
  // q, total_q and lb count lattice steps; lb is a sum of kept profits, so
  // it divides exactly, and the cap rounds down to the last multiple of g
  // it admits. The dead test below still reads the unscaled profit g * j
  // from the same doubles (for g = 1, the same expression as on the
  // unscaled axis).
  if (g == 0) g = 1;  // every kept profit is 0
  if (g > 1) {
    for (std::int64_t& v : w.q) v /= g;
  }
  const std::int64_t lattice_total = total_q / g;
  const std::int64_t lattice_axis = axis / g;
  const std::int64_t lattice_lb = lb / g;

  // Rows are built as the DP goes, each stored as its Pareto list: the
  // cells (p, min weight) that are not dead and are strictly lighter than
  // every cell of higher profit in the row, in ascending p (and so
  // ascending weight). A cell (p, w) beside a cell (p' > p, w' <= w) is
  // never on a path to the answer: the completion that takes p to the
  // answer would take p' above it at no more weight. Row c's targets are
  // the previous row's stored cells shifted by the class's [qmin, qmax],
  // cut to [lb - sum_{c'>c} qmax, axis]; its min weights go to one reused
  // scratch row, and one backward pass keeps the Pareto cells. Only those
  // that are not dead are appended to the flat cell_p/cell_w, at
  // row_begin[c+1]; row 0 there is the empty selection (p = 0, weight 0).
  // No choice is stored: the reconstruction finds it again (below). Cells
  // on a min-weight path to the answer are neither dead nor dominated, so
  // they get the same weight as in the full table; any other cell can
  // only come out heavier (docs/ANALYSIS.md §7).
  //
  // Inner loop: both a stored weight and wt[k] are below kInfWeight
  // (validate()), so their sum cannot overflow, and a sum >= kInfWeight
  // never beats a next[] entry (<= kInfWeight) -- the same outcome as
  // add_weight_sat.
  const std::int64_t* const q = w.q.data();
  const std::int64_t* const wt = w.wt.data();
  const std::int64_t capacity = inst.capacity;
  const auto need = static_cast<double>(lb);
  // Whether reachable cell j of a row, of min weight `weight`, is dead;
  // `reach` is the row's reach at its first cell, g * lo + reach[c].
  const auto dead = [capacity, slope, need, g](double reach, std::int64_t j,
                                               std::int64_t weight) {
    return weight > capacity ||
           reach + static_cast<double>(g * j) +
                   slope * static_cast<double>(capacity - weight) <
               need;
  };
  w.cell_p.assign(1, 0);
  w.cell_w.assign(1, 0);
  w.row_begin.assign({0, 1});
  std::int64_t prefix_qmax = 0;
  std::int64_t cells = 0;
  bool answered = true;
  for (std::size_t c = 0; c < m; ++c) {
    const std::size_t k_begin = w.class_begin[c];
    const std::size_t k_end = w.class_begin[c + 1];
    const std::size_t src_begin = w.row_begin[c];
    const std::size_t src_end = w.row_begin[c + 1];
    prefix_qmax += q[k_end - 1];
    const std::int64_t lo =
        std::max(w.cell_p[src_begin] + q[k_begin],
                 lattice_lb - (lattice_total - prefix_qmax));
    const std::int64_t hi =
        std::min(w.cell_p[src_end - 1] + q[k_end - 1], lattice_axis);
    if (lo > hi) {
      answered = false;
      break;
    }
    const auto width = static_cast<std::size_t>(hi - lo + 1);
    cells += hi - lo + 1;
    w.next.assign(width, kInfWeight);
    w.next_at.resize(width);
    std::int64_t* const next = w.next.data();
    std::int64_t* const at = w.next_at.data();

    // q is non-decreasing within a class, so the items that land source p
    // in [lo, hi] are the run [kf, ke) with lo - p <= q[k] <= hi - p; both
    // ends only move down as p grows.
    const std::int64_t* const src_p = w.cell_p.data();
    const std::int64_t* const src_w = w.cell_w.data();
    std::size_t kf = k_end;
    std::size_t ke = k_end;
    for (std::size_t i = src_begin; i < src_end; ++i) {
      const std::int64_t p = src_p[i];
      const std::int64_t base = src_w[i];
      while (ke > k_begin && q[ke - 1] > hi - p) --ke;
      while (kf > k_begin && q[kf - 1] >= lo - p) --kf;
      for (std::size_t k = kf; k < ke; ++k) {
        const auto j = static_cast<std::size_t>(p + q[k] - lo);
        next[j] = std::min(next[j], base + wt[k]);
      }
    }

    // The Pareto cells, from the top: a cell is kept when it is strictly
    // lighter than every cell above it. Every cell is written just below
    // the kept list, whose front only moves down when the cell is kept;
    // the front never passes the cell read, so the list builds in place,
    // ascending, in next[front, width) and at[front, width).
    std::int64_t lightest = kInfWeight;
    std::size_t front = width;
    for (std::size_t j = width; j-- > 0;) {
      const std::int64_t weight = next[j];
      next[front - 1] = weight;
      at[front - 1] = static_cast<std::int64_t>(j);
      front -= static_cast<std::size_t>(weight < lightest);
      lightest = std::min(lightest, weight);
    }
    // Append the Pareto cells that are not dead: every one is written, and
    // the end only moves past the live ones. The rows end at row_begin, not
    // at the arrays' size, which grows by doubling so that few rows resize.
    const double reach = static_cast<double>(g * lo) + w.reach[c];
    const std::size_t room = src_end + (width - front);
    if (w.cell_p.size() < room) {
      w.cell_p.resize(2 * room);
      w.cell_w.resize(2 * room);
    }
    std::int64_t* const out_p = w.cell_p.data() + src_end;
    std::int64_t* const out_w = w.cell_w.data() + src_end;
    std::size_t kept = 0;
    for (std::size_t i = front; i < width; ++i) {
      out_p[kept] = lo + at[i];
      out_w[kept] = next[i];
      kept += static_cast<std::size_t>(!dead(reach, at[i], next[i]));
    }
    if (kept == 0) {  // no live cell
      answered = false;
      break;
    }
    w.row_begin.push_back(src_end + kept);
  }
  if (sink != nullptr) {
    auto& reg = sink->registry();
    reg.histogram("mckp.dp_cells").add(cells);
    reg.histogram("mckp.dp_kept_cells")
        .add(static_cast<std::int64_t>(w.row_begin.back() - 1));
  }
  if (!answered) return min_weight_selection(inst);

  // The last row's last cell is the largest scaled profit that fits
  // (every stored cell fits): the answer. Walking back, cell t of row c
  // came from cell t - q[k] of the row before, and the full table kept
  // the first candidate to reach its min weight, visiting sources in
  // ascending profit, then items in order. For a fixed t a lower source
  // means a higher q[k], so that candidate is the item of highest q[k]
  // whose source is stored and whose source weight plus wt[k] is the
  // cell's min weight. (Items of one q[k] share the source and differ in
  // weight -- kept items ascend strictly in weight -- so at most one of
  // them matches.) A source that is not stored lies on no path to the
  // answer, so it is never the full table's candidate here, and a stored
  // source that matches is one of its candidates (its weight is no
  // lighter than the full table's).
  std::vector<int> pick(m, -1);
  const std::int64_t* const cell_p = w.cell_p.data();
  std::int64_t t = w.cell_p[w.row_begin.back() - 1];
  std::int64_t target = w.cell_w[w.row_begin.back() - 1];
  for (std::size_t c = m; c-- > 0;) {
    // q is non-decreasing within a class, so the sources t - q[k] ascend
    // as k descends and one index walks the source row (ascending in
    // profit) from the lowest of them; the first match is the candidate.
    const std::size_t k_begin = w.class_begin[c];
    const std::size_t none = w.class_begin[c + 1];
    const std::size_t row_end = w.row_begin[c + 1];
    auto i = static_cast<std::size_t>(
        std::lower_bound(cell_p + w.row_begin[c], cell_p + row_end, t - q[none - 1]) -
        cell_p);
    std::size_t best = none;
    for (std::size_t k = none; k-- > k_begin && i < row_end;) {
      const std::int64_t from = t - q[k];
      while (i < row_end && cell_p[i] < from) ++i;
      if (i < row_end && cell_p[i] == from && w.cell_w[i] + wt[k] == target) {
        best = k;
        break;
      }
    }
    if (best == none) {
      throw std::logic_error("solve_dp_profits: broken DP path");
    }
    pick[c] = w.item_of[best];
    t -= q[best];
    target -= wt[best];
  }
  return evaluate(inst, std::move(pick));
}

Selection solve(const Instance& inst, SolverKind kind, double profit_scale,
                DpWorkspace* ws, obs::Sink* sink, double* lp_bound_out) {
  switch (kind) {
    case SolverKind::kDpProfits:
      return solve_dp_profits(inst, profit_scale, ws, sink, lp_bound_out);
    case SolverKind::kHeuOe: return solve_greedy_heu_oe(inst, lp_bound_out);
  }
  throw std::invalid_argument("solve: unknown solver kind");
}

}  // namespace rt::mckp
