// Differential test for the profit DP's live band (solvers.cpp).
//
// solve_dp_profits keeps, per class, only the band of scaled profits that
// can still reach the HEU-OE answer and stay under the LP cap. The claim
// is that this changes nothing: every surviving cell has the same minimum
// weight and the same first-wins choice as in the full table. The
// reference below is the full m x (axis+1) table the band replaced, kept
// here (and only here) so the claim stays checked: pick, weight, profit
// and feasible must be equal on ODM instances, paper task sets at every
// Fig. 3 estimation error, bounded-response tasks, the bench's random
// shape, tie-heavy small-integer instances and the edge cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/odm.hpp"
#include "core/workload.hpp"
#include "mckp/instance.hpp"
#include "mckp/solvers.hpp"
#include "obs/sink.hpp"
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
  rt::mckp::DpWorkspace w;

  w.q.clear();
  w.wt.clear();
  w.item_of.clear();
  w.class_begin.assign(1, 0);
  std::int64_t total_q = 0;
  std::int64_t min_weight_sum = 0;
  for (std::size_t c = 0; c < m; ++c) {
    const rt::mckp::ReducedClass red = rt::mckp::reduce_class(inst.classes[c]);
    std::int64_t qmax = 0;
    for (const int idx : red.undominated) {
      const Item& item = inst.classes[c][static_cast<std::size_t>(idx)];
      const auto v =
          static_cast<std::int64_t>(std::llround(item.profit * profit_scale));
      w.q.push_back(v);
      w.wt.push_back(item.weight);
      w.item_of.push_back(idx);
      qmax = std::max(qmax, v);
    }
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
  std::int64_t band = 0;
  std::int64_t table = 0;
};

/// Banded solve == full table on `inst`, with one shared workspace (the
/// ODM's reuse pattern) and a sink whose dp_cells may not exceed the
/// table the band replaced. Adds both cell counts to `cells`.
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
  Cells cells;
  if (ref.table_cells > 0) {
    EXPECT_NE(band, nullptr) << what;
    if (band == nullptr) return cells;
    EXPECT_LE(band->sum(), ref.table_cells) << what;
    cells.band = band->sum();
    cells.table = ref.table_cells;
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
        const Cells cells = expect_same(
            odm_instance(tasks), ws,
            "random n=" + std::to_string(n) + " points=" +
                std::to_string(points) + " seed=" + std::to_string(seed));
        total.band += cells.band;
        total.table += cells.table;
      }
    }
  }
  // The lower cut does most of the work on ODM traffic: this grid visits
  // ~9% of the full table with it and ~55% with the prefix bounds alone.
  EXPECT_LT(4 * total.band, total.table);
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

// The shape bench_mckp_perf's make_instance draws.
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

}  // namespace
