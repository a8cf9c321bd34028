// Property tests for the plain-dominance/LP-hull reduction and its use as
// a prepass of the profit DP (the solvers.cpp fast path).
//
// The load-bearing claims:
//   1. reduce_class invariants: the hull is a subsequence of the
//      undominated list; both are sorted by strictly increasing weight and
//      profit; no kept item dominates another; every dropped item is
//      weakly dominated by some kept item.
//   2. Running the DP on a manually-reduced instance yields exactly the
//      same optimal profit and weight as the full instance -- dominated
//      items never matter. (The production solver prunes internally; this
//      checks the math it relies on.)
//   3. Reusing one DpWorkspace across many instances changes nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "mckp/instance.hpp"
#include "mckp/solvers.hpp"
#include "support/brute_force.hpp"
#include "util/rng.hpp"

namespace {

using rt::mckp::Instance;
using rt::mckp::Item;
using rt::mckp::ReducedClass;
using rt::mckp::Selection;

// weakly dominates: at least as light AND at least as profitable.
bool weakly_dominates(const Item& a, const Item& b) {
  return a.weight <= b.weight && a.profit >= b.profit;
}

Instance random_instance(rt::Rng& rng, int max_classes, int max_items) {
  Instance inst;
  const int classes = static_cast<int>(rng.uniform_int(1, max_classes));
  for (int c = 0; c < classes; ++c) {
    std::vector<Item> cls;
    const int items = static_cast<int>(rng.uniform_int(1, max_items));
    for (int j = 0; j < items; ++j) {
      // Small integral profits so scaled DP == brute force exactly, plus
      // deliberate duplicates to exercise tie handling.
      cls.push_back({rng.uniform_int(0, 12), rng.uniform_int(0, 8) / 2.0});
    }
    inst.classes.push_back(std::move(cls));
  }
  // Capacity from infeasible (0) through slack.
  inst.capacity = rng.uniform_int(0, 12 * classes);
  return inst;
}

Instance manually_reduced(const Instance& inst) {
  Instance red;
  red.capacity = inst.capacity;
  for (const auto& cls : inst.classes) {
    const ReducedClass rc = rt::mckp::reduce_class(cls);
    std::vector<Item> kept;
    for (const int k : rc.undominated) kept.push_back(cls[k]);
    red.classes.push_back(std::move(kept));
  }
  return red;
}

TEST(DominanceReduction, ClassInvariants) {
  rt::Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Item> cls;
    const int items = static_cast<int>(rng.uniform_int(1, 12));
    for (int j = 0; j < items; ++j) {
      cls.push_back({rng.uniform_int(0, 20), rng.uniform_int(0, 10) * 0.5});
    }
    const ReducedClass rc = rt::mckp::reduce_class(cls);

    ASSERT_FALSE(rc.undominated.empty());
    ASSERT_FALSE(rc.hull.empty());

    // Hull is a subsequence of undominated (same order).
    auto it = rc.undominated.begin();
    for (const int h : rc.hull) {
      it = std::find(it, rc.undominated.end(), h);
      ASSERT_NE(it, rc.undominated.end())
          << "hull item " << h << " missing from undominated";
    }

    // Strictly increasing weight AND profit along both lists.
    for (const auto* list : {&rc.undominated, &rc.hull}) {
      for (std::size_t i = 1; i < list->size(); ++i) {
        const Item& prev = cls[(*list)[i - 1]];
        const Item& cur = cls[(*list)[i]];
        EXPECT_LT(prev.weight, cur.weight);
        EXPECT_LT(prev.profit, cur.profit);
      }
    }

    // Decreasing incremental efficiency along the hull (concavity).
    for (std::size_t i = 2; i < rc.hull.size(); ++i) {
      const Item& a = cls[rc.hull[i - 2]];
      const Item& b = cls[rc.hull[i - 1]];
      const Item& c = cls[rc.hull[i]];
      const double e1 = (b.profit - a.profit) /
                        static_cast<double>(b.weight - a.weight);
      const double e2 = (c.profit - b.profit) /
                        static_cast<double>(c.weight - b.weight);
      EXPECT_GE(e1, e2 - 1e-12);
    }

    // No kept item strictly dominates another kept item (follows from the
    // strict monotonicity, but assert it directly for clarity)...
    for (const int a : rc.undominated) {
      for (const int b : rc.undominated) {
        if (a == b) continue;
        EXPECT_FALSE(weakly_dominates(cls[a], cls[b]) &&
                     (cls[a].weight < cls[b].weight ||
                      cls[a].profit > cls[b].profit));
      }
    }
    // ...and every dropped item is weakly dominated by some kept item.
    std::vector<bool> kept(cls.size(), false);
    for (const int k : rc.undominated) kept[static_cast<std::size_t>(k)] = true;
    for (std::size_t j = 0; j < cls.size(); ++j) {
      if (kept[j]) continue;
      const bool covered = std::any_of(
          rc.undominated.begin(), rc.undominated.end(),
          [&](int k) { return weakly_dominates(cls[k], cls[j]); });
      EXPECT_TRUE(covered) << "dropped item " << j << " not dominated";
    }
  }
}

TEST(DominanceReduction, DpOnReducedInstanceMatchesFull) {
  rt::Rng rng(22);
  for (int trial = 0; trial < 300; ++trial) {
    const Instance inst = random_instance(rng, 6, 8);
    const Instance red = manually_reduced(inst);

    const Selection full = rt::mckp::solve_dp_profits(inst, 2.0);
    const Selection pruned = rt::mckp::solve_dp_profits(red, 2.0);

    ASSERT_EQ(full.feasible, pruned.feasible);
    if (full.feasible) {
      // Profits are multiples of 0.5 -> exact at scale 2.
      EXPECT_DOUBLE_EQ(full.profit, pruned.profit);
      EXPECT_EQ(full.weight, pruned.weight);
    }
  }
}

TEST(DominanceReduction, DpMatchesBruteForceOnIntegralProfits) {
  rt::Rng rng(33);
  for (int trial = 0; trial < 200; ++trial) {
    const Instance inst = random_instance(rng, 5, 6);
    const Selection dp = rt::mckp::solve_dp_profits(inst, 2.0);
    const Selection bf = rt::mckp::solve_brute_force(inst);
    ASSERT_EQ(dp.feasible, bf.feasible);
    if (dp.feasible) {
      EXPECT_DOUBLE_EQ(dp.profit, bf.profit);
      // Both break profit ties toward minimum weight.
      EXPECT_EQ(dp.weight, bf.weight);
    }
  }
}

TEST(DominanceReduction, WorkspaceReuseIsPure) {
  rt::Rng rng(44);
  rt::mckp::DpWorkspace ws;
  for (int trial = 0; trial < 100; ++trial) {
    const Instance inst = random_instance(rng, 6, 8);
    const Selection fresh = rt::mckp::solve_dp_profits(inst, 2.0);
    const Selection reused =
        rt::mckp::solve_dp_profits(inst, 2.0, &ws);
    ASSERT_EQ(fresh.feasible, reused.feasible);
    EXPECT_EQ(fresh.pick, reused.pick);
    EXPECT_DOUBLE_EQ(fresh.profit, reused.profit);
    EXPECT_EQ(fresh.weight, reused.weight);
  }
}

}  // namespace
