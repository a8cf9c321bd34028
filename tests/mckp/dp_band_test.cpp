// Differential test for the profit DP's live cells (solvers.cpp).
//
// solve_dp_profits computes, per class, only the cells that can still
// reach the HEU-OE answer, on the lattice of multiples of the gcd g of
// the kept scaled profits: by profit (the band under the LP cap) and by
// capacity (a Lagrangian bound over the capacity a cell leaves). It
// stores min weights only and rebuilds the pick backward. The claim is
// that this changes nothing: every cell on a min-weight path to the
// answer has the same minimum weight as in the full table, and the
// rebuilt pick is the full table's first-wins choice. The reference below
// is the full m x (axis+1) table with a choice per cell, kept here (and
// only here) so the claim stays checked: pick, weight, profit and
// feasible must be equal on ODM instances, paper task sets at every
// Fig. 3 estimation error, bounded-response tasks, a random shape,
// tie-heavy small-integer instances, lattices, capacities swept across
// the binding range, huge weights and the edge cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/odm.hpp"
#include "core/workload.hpp"
#include "mckp/instance.hpp"
#include "mckp/solvers.hpp"
#include "obs/sink.hpp"
#include "support/brute_force.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using rt::mckp::Instance;
using rt::mckp::Item;
using rt::mckp::Selection;
using rt::mckp::add_weight_sat;
using rt::mckp::kInfWeight;

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
  return rt::mckp::evaluate(inst, std::move(pick));
}

struct Reference {
  Selection sel;
  std::int64_t table_cells = 0;  ///< (axis+1) * m; 0 on early returns
  /// Lattice cells of the profit-only band: per class, the multiples of
  /// g in [max(sum_{<=c} qmin, lb - sum_{>c} qmax), min(axis,
  /// sum_{<=c} qmax)], lb the HEU-OE answer's scaled profit and g the gcd
  /// of the kept scaled profits (1 if all are 0). The capacity cut must
  /// compute no more.
  std::int64_t band_cells = 0;
};

/// The full-table profit DP: dominance reduction, LP cap, then every cell
/// 0..axis of every class.
Reference reference_dp_profits(const Instance& inst, double profit_scale) {
  inst.validate();
  Reference out;
  const std::size_t m = inst.classes.size();
  if (m == 0) {
    out.sel.feasible = true;
    return out;
  }
  // The reference's own tables, independent of DpWorkspace's layout.
  struct {
    std::vector<std::int64_t> q;         ///< scaled profits of kept items
    std::vector<std::int64_t> wt;        ///< weights of kept items
    std::vector<std::int32_t> item_of;   ///< original index per kept item
    std::vector<std::size_t> class_begin{0};
    std::vector<std::int64_t> dp;        ///< min weight per profit, class c-1
    std::vector<std::int64_t> next;      ///< the same for class c
    std::vector<std::int32_t> choice;    ///< m x (axis+1) first-wins items
  } w;

  std::int64_t g = 0;
  std::vector<std::int64_t> qmins;
  std::vector<std::int64_t> qmaxs;
  std::int64_t total_q = 0;
  std::int64_t min_weight_sum = 0;
  for (std::size_t c = 0; c < m; ++c) {
    const rt::mckp::ReducedClass red = rt::mckp::reduce_class(inst.classes[c]);
    std::int64_t qmin = std::numeric_limits<std::int64_t>::max();
    std::int64_t qmax = 0;
    for (const int idx : red.undominated) {
      const Item& item = inst.classes[c][static_cast<std::size_t>(idx)];
      const auto v =
          static_cast<std::int64_t>(std::llround(item.profit * profit_scale));
      w.q.push_back(v);
      w.wt.push_back(item.weight);
      w.item_of.push_back(idx);
      g = std::gcd(g, v);
      qmin = std::min(qmin, v);
      qmax = std::max(qmax, v);
    }
    qmins.push_back(qmin);
    qmaxs.push_back(qmax);
    w.class_begin.push_back(w.q.size());
    min_weight_sum = add_weight_sat(
        min_weight_sum,
        inst.classes[c][static_cast<std::size_t>(red.undominated.front())].weight);
    total_q += qmax;
  }
  if (min_weight_sum > inst.capacity) {
    out.sel = min_weight_selection(inst);
    return out;
  }

  std::int64_t axis = total_q;
  const double ub = rt::mckp::lp_upper_bound(inst);
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
  out.table_cells = (axis + 1) * static_cast<std::int64_t>(m);

  const Selection greedy = rt::mckp::solve_greedy_heu_oe(inst);
  std::int64_t lb = 0;
  for (std::size_t c = 0; c < m; ++c) {
    const Item& item = inst.classes[c][static_cast<std::size_t>(greedy.pick[c])];
    lb += static_cast<std::int64_t>(std::llround(item.profit * profit_scale));
  }
  if (lb > axis) lb = 0;
  std::int64_t prefix_qmin = 0;
  std::int64_t prefix_qmax = 0;
  for (std::size_t c = 0; c < m; ++c) {
    prefix_qmin += qmins[c];
    prefix_qmax += qmaxs[c];
    const std::int64_t lo = std::max(prefix_qmin, lb - (total_q - prefix_qmax));
    const std::int64_t hi = std::min(axis, prefix_qmax);
    const std::int64_t step = g == 0 ? 1 : g;
    // Multiples of step in [lo, hi]; both ends are >= 0 when lo <= hi.
    if (lo <= hi) out.band_cells += hi / step - (lo + step - 1) / step + 1;
  }

  const auto P = static_cast<std::size_t>(axis);
  w.dp.assign(P + 1, kInfWeight);
  w.next.resize(P + 1);
  w.choice.assign(m * (P + 1), -1);

  for (std::size_t k = w.class_begin[0]; k < w.class_begin[1]; ++k) {
    if (w.q[k] > axis) continue;
    const auto p = static_cast<std::size_t>(w.q[k]);
    if (w.wt[k] < w.dp[p]) {
      w.dp[p] = w.wt[k];
      w.choice[p] = static_cast<std::int32_t>(k);
    }
  }

  for (std::size_t c = 1; c < m; ++c) {
    std::fill(w.next.begin(), w.next.end(), kInfWeight);
    std::int32_t* const row = w.choice.data() + c * (P + 1);
    for (std::size_t p = 0; p <= P; ++p) {
      if (w.dp[p] >= kInfWeight) continue;
      for (std::size_t k = w.class_begin[c]; k < w.class_begin[c + 1]; ++k) {
        const std::int64_t tgt64 = static_cast<std::int64_t>(p) + w.q[k];
        if (tgt64 > axis) continue;
        const auto tgt = static_cast<std::size_t>(tgt64);
        const std::int64_t weight = add_weight_sat(w.dp[p], w.wt[k]);
        if (weight < w.next[tgt]) {
          w.next[tgt] = weight;
          row[tgt] = static_cast<std::int32_t>(k);
        }
      }
    }
    w.dp.swap(w.next);
  }

  std::ptrdiff_t best_p = -1;
  for (std::size_t p = 0; p <= P; ++p) {
    if (w.dp[p] <= inst.capacity) best_p = static_cast<std::ptrdiff_t>(p);
  }
  if (best_p < 0) {
    out.sel = min_weight_selection(inst);
    return out;
  }

  std::vector<int> pick(m, -1);
  auto p = static_cast<std::size_t>(best_p);
  for (std::size_t c = m; c-- > 0;) {
    const std::int32_t k = w.choice[c * (P + 1) + p];
    if (k < 0) throw std::logic_error("solve_dp_profits: broken DP path");
    pick[c] = w.item_of[static_cast<std::size_t>(k)];
    p -= static_cast<std::size_t>(w.q[static_cast<std::size_t>(k)]);
  }
  out.sel = rt::mckp::evaluate(inst, std::move(pick));
  return out;
}

struct Cells {
  std::int64_t band = 0;         ///< cells computed (mckp.dp_cells)
  std::int64_t kept = 0;         ///< cells stored (mckp.dp_kept_cells)
  std::int64_t table = 0;        ///< the full table's cells
  std::int64_t profit_band = 0;  ///< the profit-only band's cells

  void operator+=(const Cells& o) {
    band += o.band;
    kept += o.kept;
    table += o.table;
    profit_band += o.profit_band;
  }
};

/// Pruned solve == full table on `inst`, with one shared workspace (the
/// ODM's reuse pattern) and a sink whose dp_cells may not exceed the
/// profit-only band, itself within the table. Returns the cell counts.
Cells expect_same(const Instance& inst, rt::mckp::DpWorkspace& ws,
                 const std::string& what,
                 double scale = rt::mckp::kDefaultProfitScale) {
  const Reference ref = reference_dp_profits(inst, scale);
  rt::obs::Sink sink;
  const Selection got = rt::mckp::solve_dp_profits(inst, scale, &ws, &sink);
  EXPECT_EQ(got.pick, ref.sel.pick) << what;
  EXPECT_EQ(got.weight, ref.sel.weight) << what;
  EXPECT_EQ(got.profit, ref.sel.profit) << what;
  EXPECT_EQ(got.feasible, ref.sel.feasible) << what;
  const auto* band = sink.registry().find_histogram("mckp.dp_cells");
  const auto* kept = sink.registry().find_histogram("mckp.dp_kept_cells");
  Cells cells;
  if (ref.table_cells > 0) {
    EXPECT_NE(band, nullptr) << what;
    EXPECT_NE(kept, nullptr) << what;
    if (band == nullptr || kept == nullptr) return cells;
    EXPECT_LE(band->sum(), ref.table_cells) << what;
    EXPECT_LE(band->sum(), ref.band_cells) << what;
    EXPECT_LE(kept->sum(), band->sum()) << what;
    cells.band = band->sum();
    cells.kept = kept->sum();
    cells.table = ref.table_cells;
    cells.profit_band = ref.band_cells;
  }
  return cells;
}

Instance odm_instance(const rt::core::TaskSet& tasks, double error = 0.0,
                      bool weights = true) {
  rt::core::OdmConfig cfg;
  cfg.estimation_error = error;
  cfg.apply_task_weights = weights;
  return rt::core::build_odm_instance(tasks, cfg).instance;
}

TEST(DpBand, RandomOdmInstances) {
  rt::mckp::DpWorkspace ws;
  Cells total;
  for (const int n : {10, 30, 60}) {
    for (const int points : {5, 10}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        rt::Rng rng(seed * 1000 + static_cast<std::uint64_t>(n + points));
        rt::core::RandomTasksetConfig cfg;
        cfg.num_tasks = n;
        cfg.benefit_points = points;
        const auto tasks = rt::core::make_random_taskset(rng, cfg);
        total += expect_same(
            odm_instance(tasks), ws,
            "random n=" + std::to_string(n) + " points=" +
                std::to_string(points) + " seed=" + std::to_string(seed));
      }
    }
  }
  // The lower cut does most of the work on ODM traffic: this grid visits
  // ~9% of the full table with it and ~55% with the prefix bounds alone.
  EXPECT_LT(4 * total.band, total.table);
  // The capacity cut computes ~36% of the profit-only band here; a change
  // that silently disables it computes all of it.
  EXPECT_LT(100 * total.band, 45 * total.profit_band)
      << total.band << " of " << total.profit_band;
}

TEST(DpBand, PaperSetsAtEveryFig3EstimationError) {
  std::ifstream in(std::string(RTOFFLOAD_SPECS_DIR) + "/fig3.json");
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  const rt::Json doc = rt::Json::parse(text.str());
  const auto doc_seed =
      static_cast<std::uint64_t>(doc.at("workload").at("seed").as_number());
  std::vector<double> errors;
  for (const auto& axis : doc.at("sweep").at("axes").as_array()) {
    if (axis.at("path").as_string() != "odm.estimation_error") continue;
    for (const auto& v : axis.at("values").as_array()) {
      errors.push_back(v.as_number());
    }
  }
  ASSERT_FALSE(errors.empty());

  rt::mckp::DpWorkspace ws;
  for (const std::uint64_t seed : {doc_seed, std::uint64_t{7}, std::uint64_t{8}}) {
    rt::Rng rng(seed);
    const auto tasks = rt::core::make_paper_simulation_taskset(rng);
    for (const double x : errors) {
      expect_same(odm_instance(tasks, x, /*weights=*/false), ws,
                  "paper seed=" + std::to_string(seed) + " x=" + std::to_string(x));
    }
  }
}

TEST(DpBand, BoundedResponseTasksTwoItemsPerLevel) {
  rt::mckp::DpWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    rt::Rng rng(seed);
    rt::core::RandomTasksetConfig cfg;
    cfg.num_tasks = 20;
    cfg.benefit_points = 6;
    auto tasks = rt::core::make_random_taskset(rng, cfg);
    // A trusted bound between the first and last breakpoint: every level
    // below it gains a second item granting R = B.
    std::size_t classes_with_extra = 0;
    for (std::size_t i = 0; i < tasks.size(); i += 2) {
      const auto& b = tasks[i].benefit;
      const auto lo = b.point(1).response_time;
      const auto hi = b.point(b.size() - 1).response_time;
      tasks[i].response_upper_bound = lo + (hi - lo) / 2;
    }
    const auto odm = rt::core::build_odm_instance(tasks, {});
    for (std::size_t c = 0; c < odm.level_of.size(); ++c) {
      const auto& levels = odm.level_of[c];
      for (std::size_t k = 1; k < levels.size(); ++k) {
        if (levels[k] == levels[k - 1]) {
          ++classes_with_extra;
          break;
        }
      }
    }
    EXPECT_GT(classes_with_extra, 0u) << "seed=" << seed;
    expect_same(odm.instance, ws, "bounded seed=" + std::to_string(seed));
  }
}

// A random shape: per class, one light low-profit item and `items - 1`
// heavier ones, under a capacity of 1,000,000 (the instances the retired
// MCKP micro-benchmark timed).
Instance bench_shape(int classes, int items, std::uint64_t seed) {
  rt::Rng rng(seed);
  Instance inst;
  inst.capacity = 1'000'000;
  for (int c = 0; c < classes; ++c) {
    std::vector<Item> cls;
    cls.push_back({rng.uniform_int(0, 40'000), rng.uniform(0.0, 0.3)});
    for (int j = 1; j < items; ++j) {
      cls.push_back({rng.uniform_int(20'000, 400'000), rng.uniform(0.1, 1.0)});
    }
    inst.classes.push_back(std::move(cls));
  }
  return inst;
}

TEST(DpBand, BenchMckpPerfShape) {
  rt::mckp::DpWorkspace ws;
  for (const int classes : {4, 8, 16, 32, 64}) {
    for (const std::uint64_t seed : {std::uint64_t{42}, std::uint64_t{43}}) {
      expect_same(bench_shape(classes, 10, seed), ws,
                  "bench classes=" + std::to_string(classes) +
                      " seed=" + std::to_string(seed));
    }
  }
}

TEST(DpBand, SmallIntegerProfitsManyWeightTies) {
  // Few distinct weights and profits: many cells are reached at equal
  // weight by several (p, item) pairs, so any change to the visiting
  // order of the surviving candidates would show in pick.
  rt::mckp::DpWorkspace ws;
  rt::Rng rng(5);
  for (int trial = 0; trial < 400; ++trial) {
    Instance inst;
    const int classes = static_cast<int>(rng.uniform_int(1, 9));
    for (int c = 0; c < classes; ++c) {
      std::vector<Item> cls;
      const int items = static_cast<int>(rng.uniform_int(1, 6));
      for (int j = 0; j < items; ++j) {
        cls.push_back({rng.uniform_int(0, 4), static_cast<double>(rng.uniform_int(0, 4))});
      }
      inst.classes.push_back(std::move(cls));
    }
    inst.capacity = rng.uniform_int(0, 4 * classes);
    expect_same(inst, ws, "ties trial=" + std::to_string(trial), 1.0);
  }
}

TEST(DpBand, MinWeightOverflowAndSingleClass) {
  rt::mckp::DpWorkspace ws;
  Instance overflow;
  overflow.capacity = 5;
  overflow.classes = {{{3, 1.0}, {4, 2.0}}, {{3, 0.5}, {6, 3.0}}};
  const Selection got = rt::mckp::solve_dp_profits(overflow, 1000.0, &ws);
  EXPECT_FALSE(got.feasible);
  expect_same(overflow, ws, "min-weight overflow");

  Instance single;
  single.capacity = 10;
  single.classes = {{{0, 0.0}, {4, 1.5}, {10, 2.25}, {11, 9.0}, {7, 1.0}}};
  expect_same(single, ws, "single class");
  single.capacity = 3;
  expect_same(single, ws, "single class, only the cheapest fits");
}

/// The capacities over which the capacity binds: sum of the lightest item
/// per class (only the cheapest picks fit) to sum of the heaviest (every
/// pick fits, so the LP multiplier is 0), at steps + 1 evenly spaced
/// points, both ends included.
std::vector<std::int64_t> binding_capacities(const Instance& inst, int steps) {
  std::int64_t wmin_sum = 0;
  std::int64_t wmax_sum = 0;
  for (const auto& cls : inst.classes) {
    std::int64_t wmin = cls.front().weight;
    std::int64_t wmax = cls.front().weight;
    for (const Item& item : cls) {
      wmin = std::min(wmin, item.weight);
      wmax = std::max(wmax, item.weight);
    }
    wmin_sum += wmin;
    wmax_sum += wmax;
  }
  const auto span = static_cast<double>(wmax_sum - wmin_sum);
  std::vector<std::int64_t> out;
  for (int s = 0; s <= steps; ++s) {
    out.push_back(wmin_sum + static_cast<std::int64_t>(span * s / steps));
  }
  return out;
}

/// Solves `inst` at each of its binding capacities (binding_capacities).
void sweep_capacity(Instance inst, int steps, rt::mckp::DpWorkspace& ws,
                    const std::string& what,
                    double scale = rt::mckp::kDefaultProfitScale) {
  const std::vector<std::int64_t> caps = binding_capacities(inst, steps);
  for (std::size_t s = 0; s < caps.size(); ++s) {
    inst.capacity = caps[s];
    expect_same(inst, ws, what + " capacity step " + std::to_string(s), scale);
  }
}

TEST(DpBand, CapacitySweptAcrossTheBindingRange) {
  rt::mckp::DpWorkspace ws;
  for (const int n : {10, 30}) {
    for (const int points : {5, 10}) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        rt::Rng rng(seed * 77 + static_cast<std::uint64_t>(n + points));
        rt::core::RandomTasksetConfig cfg;
        cfg.num_tasks = n;
        cfg.benefit_points = points;
        sweep_capacity(odm_instance(rt::core::make_random_taskset(rng, cfg)), 10,
                       ws,
                       "odm n=" + std::to_string(n) + " points=" +
                           std::to_string(points) + " seed=" + std::to_string(seed));
      }
    }
  }
  for (const int classes : {4, 16, 32}) {
    for (const std::uint64_t seed : {std::uint64_t{42}, std::uint64_t{43}}) {
      sweep_capacity(bench_shape(classes, 10, seed), 10, ws,
                     "bench classes=" + std::to_string(classes) +
                         " seed=" + std::to_string(seed));
    }
  }
}

TEST(DpBand, HalfIntegerProfitsAtEveryCapacity) {
  // Profits k + 1/2 at scale 1: llround adds exactly 1/2 per class, and
  // small integer weights make the Lagrangian bound tight on many cells,
  // so the cut's rounding slack is what keeps the answer's path alive.
  rt::mckp::DpWorkspace ws;
  rt::Rng rng(11);
  for (int trial = 0; trial < 150; ++trial) {
    Instance inst;
    const int classes = static_cast<int>(rng.uniform_int(2, 10));
    for (int c = 0; c < classes; ++c) {
      std::vector<Item> cls;
      const int items = static_cast<int>(rng.uniform_int(1, 5));
      for (int j = 0; j < items; ++j) {
        const auto weight = rng.uniform_int(0, 6);
        cls.push_back({weight, static_cast<double>(weight + rng.uniform_int(0, 2)) + 0.5});
      }
      inst.classes.push_back(std::move(cls));
    }
    sweep_capacity(inst, 12, ws, "half trial=" + std::to_string(trial), 1.0);
  }
}

TEST(DpBand, HugeWeightsAtEveryProfitScale) {
  // Weights of 1e15..1e17 make lambda * x the product of a tiny multiplier
  // and a huge capacity, and profit - lambda * weight cancel: the cut's
  // float margin must hold at every profit scale.
  rt::mckp::DpWorkspace ws;
  rt::Rng rng(17);
  for (const double scale : {100.0, 1000.0, 1e6}) {
    const double max_profit = scale > 1e5 ? 0.2 : 1.0;
    for (const int classes : {1, 3, 8, 20}) {
      if (scale > 1e5 && classes > 3) continue;  // keeps the reference small
      for (int trial = 0; trial < 3; ++trial) {
        Instance inst;
        for (int c = 0; c < classes; ++c) {
          std::vector<Item> cls;
          for (int j = 0; j < 5; ++j) {
            cls.push_back({rng.uniform_int(1'000'000'000'000'000,
                                           100'000'000'000'000'000),
                           rng.uniform(0.0, max_profit)});
          }
          inst.classes.push_back(std::move(cls));
        }
        sweep_capacity(inst, 6, ws,
                       "huge scale=" + std::to_string(scale) + " classes=" +
                           std::to_string(classes) + " trial=" + std::to_string(trial),
                       scale);
      }
    }
  }
}

TEST(DpBand, CapacityCutEdgeCases) {
  rt::mckp::DpWorkspace ws;

  // Everything fits: no hull step is critical, lambda = 0.
  Instance roomy = bench_shape(8, 6, 5);
  roomy.capacity = 1'000'000'000;
  expect_same(roomy, ws, "lambda = 0");

  // Only the cheapest picks fit and they are worth nothing: lb = 0.
  Instance zero_lb;
  zero_lb.classes = {{{2, 0.0}, {5, 1.0}}, {{1, 0.0}, {3, 0.25}}, {{4, 0.0}, {9, 2.0}}};
  zero_lb.capacity = 7;
  expect_same(zero_lb, ws, "lb = 0");
  // Not even the cheapest picks fit: the greedy is infeasible.
  zero_lb.capacity = 6;
  const Selection overflow = rt::mckp::solve_dp_profits(zero_lb, 1000.0, &ws);
  EXPECT_FALSE(overflow.feasible);
  expect_same(zero_lb, ws, "greedy infeasible");

  // Zero-weight items, alone and beside heavier ones, at capacity 0 up.
  Instance weightless;
  weightless.classes = {{{0, 0.5}, {0, 0.75}, {3, 1.0}},
                        {{0, 0.0}},
                        {{0, 0.25}, {2, 0.5}, {4, 2.0}},
                        {{0, 1.0}, {0, 1.0}, {1, 1.5}}};
  for (std::int64_t cap = 0; cap <= 9; ++cap) {
    weightless.capacity = cap;
    expect_same(weightless, ws, "zero weights capacity=" + std::to_string(cap));
  }

  // A single class: the last row is the first.
  Instance single;
  single.classes = {{{0, 0.0}, {4, 1.5}, {10, 2.25}, {11, 9.0}, {7, 1.0}, {7, 1.75}}};
  sweep_capacity(single, 11, ws, "single class", 1000.0);

  // m = 80: the rounding slack and the float margin sum over many classes.
  rt::Rng rng(80);
  rt::core::RandomTasksetConfig cfg;
  cfg.num_tasks = 80;
  cfg.benefit_points = 6;
  expect_same(odm_instance(rt::core::make_random_taskset(rng, cfg)), ws,
              "odm m=80");
  sweep_capacity(bench_shape(80, 6, 80), 4, ws, "bench m=80");
}

/// Fig. 3-shaped classes: ten items, profits 0.0, 0.1, ..., 0.9 (plus a
/// jitter below half a scaled unit at scale 1000 when `jitter` is set, so
/// scaled profits stay on the 0.1 ladder), weights ascending by random
/// steps, some zero.
Instance ladder(int classes, std::uint64_t seed, bool jitter) {
  rt::Rng rng(seed);
  Instance inst;
  inst.capacity = 1'000'000;
  for (int c = 0; c < classes; ++c) {
    std::vector<Item> cls;
    std::int64_t weight = rng.uniform_int(0, 30'000);
    for (int j = 0; j < 10; ++j) {
      const double bump = jitter ? rng.uniform(0.0, 0.0004) : 0.0;
      cls.push_back({weight, 0.1 * j + bump});
      weight += rng.uniform_int(0, 40'000);
    }
    inst.classes.push_back(std::move(cls));
  }
  return inst;
}

TEST(DpBand, ProfitLattice) {
  rt::mckp::DpWorkspace ws;

  // g = 10 and an LP cap of llround(14 + 1/2 + 1) = 16, not a multiple of
  // 10: the one row holds the multiples of 10 in [lb, 16] = [10, 16], a
  // single cell. A cap rounded up to 20 would compute two.
  Instance cap;
  cap.classes = {{{0, 0.0}, {5, 10.0}, {10, 20.0}}};
  cap.capacity = 7;
  EXPECT_EQ(expect_same(cap, ws, "g = 10, cap 16", 1.0).band, 1);

  // Only the cheapest picks fit and they are worth nothing (lb = 0), on
  // g = 250: the cap llround(0 + 3/2 + 1) = 3 admits lattice cell 0 only,
  // one cell per class.
  Instance zero_lb;
  zero_lb.classes = {{{2, 0.0}, {5, 1.0}}, {{1, 0.0}, {3, 0.25}}, {{4, 0.0}, {9, 2.0}}};
  zero_lb.capacity = 7;
  EXPECT_EQ(expect_same(zero_lb, ws, "lb = 0, g = 250").band, 3);

  // Every profit is 0: g is taken as 1, one cell (p = 0) per class.
  Instance zeros;
  zeros.classes = {{{3, 0.0}, {1, 0.0}}, {{0, 0.0}, {2, 0.0}}, {{4, 0.0}}};
  zeros.capacity = 5;
  EXPECT_EQ(expect_same(zeros, ws, "all-zero profits").band, 3);
  zeros.capacity = 4;  // the cheapest picks weigh 5
  EXPECT_FALSE(rt::mckp::solve_dp_profits(zeros, 1000.0, &ws).feasible);
  expect_same(zeros, ws, "all-zero profits, overflow");

  // Duplicate items, on g = 250.
  Instance dup;
  dup.classes = {{{2, 0.5}, {2, 0.5}, {4, 1.0}, {4, 1.0}, {0, 0.0}},
                 {{1, 0.25}, {1, 0.25}, {3, 0.75}},
                 {{0, 0.0}, {0, 0.0}},
                 {{3, 1.25}, {1, 0.5}, {3, 1.25}}};
  sweep_capacity(dup, 12, ws, "duplicates");

  // Fig. 3 ladders (g = 100), then one class that breaks the lattice:
  // a 0.25 step makes g = 50, a 0.123 profit makes g = 1.
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2}}) {
    Instance inst = ladder(12, seed, false);
    Cells on_lattice;
    std::int64_t wmax_sum = 0;
    for (const auto& cls : inst.classes) wmax_sum += cls.back().weight;
    for (int s = 1; s <= 4; ++s) {
      inst.capacity = wmax_sum * s / 5;
      on_lattice += expect_same(inst, ws, "ladder seed=" + std::to_string(seed));
    }
    Instance half = inst;
    half.classes[5][9].profit = 0.95;
    sweep_capacity(half, 4, ws, "g = 50 seed=" + std::to_string(seed));
    Instance broken = inst;
    broken.classes[5][3].profit = 0.323;
    Cells off_lattice;
    for (int s = 1; s <= 4; ++s) {
      broken.capacity = wmax_sum * s / 5;
      off_lattice += expect_same(broken, ws, "g = 1 seed=" + std::to_string(seed));
    }
    // The ladder's rows hold a hundredth of the cells a g = 1 axis would.
    EXPECT_LT(20 * on_lattice.band, off_lattice.band)
        << on_lattice.band << " vs " << off_lattice.band;
  }
}

TEST(DpBand, EqualScaledProfitsDifferentWeights) {
  // Profits 0.1 k plus a jitter below half a scaled unit: within a class,
  // undominated items of different weights share a scaled profit (and
  // g = 100), so the rebuilt pick must choose among sources exactly as
  // the full table's first-wins order did.
  rt::mckp::DpWorkspace ws;
  rt::Rng rng(29);
  for (int trial = 0; trial < 60; ++trial) {
    Instance inst;
    const int classes = static_cast<int>(rng.uniform_int(1, 8));
    for (int c = 0; c < classes; ++c) {
      std::vector<Item> cls;
      const int items = static_cast<int>(rng.uniform_int(1, 8));
      for (int j = 0; j < items; ++j) {
        cls.push_back({rng.uniform_int(0, 6),
                       0.1 * static_cast<double>(rng.uniform_int(0, 3)) +
                           rng.uniform(0.0, 0.0004)});
      }
      inst.classes.push_back(std::move(cls));
    }
    sweep_capacity(inst, 8, ws, "equal scaled trial=" + std::to_string(trial));
  }
  for (const std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{4}}) {
    sweep_capacity(ladder(10, seed, true), 6, ws,
                   "jittered ladder seed=" + std::to_string(seed));
  }
}

TEST(DpBand, ParetoRowsOnTinyWeightRanges) {
  // Weights within a span of 2 per class under integer profits up to 20:
  // most cells of a row share their min weight with cells of other
  // profits, so the Pareto rows drop most of them, and the dominance
  // test meets its tie (a cell beside one of higher profit and equal
  // weight) in most rows. Each capacity of the binding range is held to
  // the full table (pick included) and, profits being whole at scale 1,
  // to enumeration (profit, weight).
  rt::mckp::DpWorkspace ws;
  rt::Rng rng(37);
  Cells total;
  for (int trial = 0; trial < 120; ++trial) {
    Instance inst;
    const int classes = static_cast<int>(rng.uniform_int(2, 7));
    for (int c = 0; c < classes; ++c) {
      std::vector<Item> cls;
      const std::int64_t base = rng.uniform_int(0, 3);
      const int items = static_cast<int>(rng.uniform_int(1, 5));
      for (int j = 0; j < items; ++j) {
        cls.push_back({base + rng.uniform_int(0, 2),
                       static_cast<double>(rng.uniform_int(0, 20))});
      }
      inst.classes.push_back(std::move(cls));
    }
    for (const std::int64_t cap : binding_capacities(inst, 8)) {
      inst.capacity = cap;
      const std::string what =
          "tiny trial=" + std::to_string(trial) + " capacity=" + std::to_string(cap);
      total += expect_same(inst, ws, what, 1.0);
      const Selection got = rt::mckp::solve_dp_profits(inst, 1.0, &ws);
      const Selection bf = rt::mckp::solve_brute_force(inst);
      EXPECT_EQ(got.feasible, bf.feasible) << what;
      EXPECT_EQ(got.profit, bf.profit) << what;
      EXPECT_EQ(got.weight, bf.weight) << what;
    }
  }
  // Non-vacuous: the rows store 42 % of the cells computed.
  EXPECT_LT(2 * total.kept, total.band) << total.kept << " of " << total.band;
}

// The DP's total work over fixed instance sets, pinned: the lattice cells
// computed (mckp.dp_cells) on the benchmark's odm_admission shapes
// (random task sets, n in {10, 30, 60}, 5 or 10 benefit points; g = 1)
// and on Fig. 3 paper sets at x in {-0.2, 0, +0.2} (benefits on a 0.1
// ladder; g = 100). The counts are deterministic, so a change to a cut,
// to the band or to the lattice moves them: such a change re-records
// them here and says why.
TEST(DpCells, PinnedTotals) {
  rt::mckp::DpWorkspace ws;
  rt::obs::Sink admission;
  for (const int n : {10, 30, 60}) {
    for (const int points : {5, 10}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        rt::Rng rng(seed * 100 + static_cast<std::uint64_t>(n + points));
        rt::core::RandomTasksetConfig cfg;
        cfg.num_tasks = n;
        cfg.benefit_points = points;
        rt::mckp::solve_dp_profits(
            odm_instance(rt::core::make_random_taskset(rng, cfg)),
            rt::mckp::kDefaultProfitScale, &ws, &admission);
      }
    }
  }
  rt::obs::Sink paper;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    rt::Rng rng(seed);
    const auto tasks = rt::core::make_paper_simulation_taskset(rng);
    for (const double x : {-0.2, 0.0, 0.2}) {
      rt::mckp::solve_dp_profits(odm_instance(tasks, x, /*weights=*/false),
                                 rt::mckp::kDefaultProfitScale, &ws, &paper);
    }
  }
  const auto* a = admission.registry().find_histogram("mckp.dp_cells");
  const auto* f = paper.registry().find_histogram("mckp.dp_cells");
  const auto* a_kept = admission.registry().find_histogram("mckp.dp_kept_cells");
  const auto* f_kept = paper.registry().find_histogram("mckp.dp_kept_cells");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(f, nullptr);
  ASSERT_NE(a_kept, nullptr);
  ASSERT_NE(f_kept, nullptr);
  EXPECT_EQ(a->count(), 18u);
  EXPECT_EQ(f->count(), 9u);
  EXPECT_EQ(a_kept->count(), 18u);
  EXPECT_EQ(f_kept->count(), 9u);
  // The paper sets took 1,094,436 cells on the full axis. A row's range
  // starts at its source row's first stored cell, which dominance can
  // put above the first live one (693,904 admission cells without it).
  EXPECT_EQ(a->sum(), 693'855);
  EXPECT_EQ(f->sum(), 11'195);
  // The cells stored over all rows: the DP's work per decide, since each
  // stored cell is one source scattered into the next row.
  EXPECT_EQ(a_kept->sum(), 45'721);
  EXPECT_EQ(f_kept->sum(), 7'035);
}

}  // namespace
