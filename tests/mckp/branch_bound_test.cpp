#include "support/branch_bound.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "mckp/solvers.hpp"
#include "support/brute_force.hpp"
#include "util/rng.hpp"

namespace rt::mckp {
namespace {

Instance small_instance() {
  Instance inst;
  inst.capacity = 100;
  inst.classes = {
      {{10, 1.0}, {40, 5.0}, {90, 9.0}},
      {{5, 0.5}, {60, 4.0}},
      {{0, 0.0}, {30, 3.0}},
  };
  return inst;
}

Instance random_instance(Rng& rng, int num_classes, int max_items,
                         std::int64_t capacity) {
  Instance inst;
  inst.capacity = capacity;
  for (int c = 0; c < num_classes; ++c) {
    const auto n = static_cast<int>(rng.uniform_int(1, max_items));
    std::vector<Item> cls;
    for (int j = 0; j < n; ++j) {
      cls.push_back({rng.uniform_int(0, capacity / 2), rng.uniform(0.0, 10.0)});
    }
    inst.classes.push_back(std::move(cls));
  }
  return inst;
}

TEST(BranchBound, FindsKnownOptimum) {
  const Selection sel = solve_branch_bound(small_instance());
  ASSERT_TRUE(sel.feasible);
  EXPECT_DOUBLE_EQ(sel.profit, 9.5);
  EXPECT_EQ(sel.weight, 95);
}

TEST(BranchBound, ReportsStats) {
  BranchBoundStats stats;
  solve_branch_bound(small_instance(), &stats);
  EXPECT_GT(stats.nodes_visited, 0u);
}

TEST(BranchBound, InfeasibleFallsBackToMinWeight) {
  Instance inst;
  inst.capacity = 5;
  inst.classes = {{{10, 1.0}, {20, 2.0}}, {{7, 1.0}}};
  const Selection sel = solve_branch_bound(inst);
  EXPECT_FALSE(sel.feasible);
  EXPECT_EQ(sel.weight, 17);
}

TEST(BranchBound, EmptyInstance) {
  Instance inst;
  const Selection sel = solve_branch_bound(inst);
  EXPECT_TRUE(sel.feasible);
  EXPECT_DOUBLE_EQ(sel.profit, 0.0);
}

TEST(BranchBound, NodeBudgetEnforced) {
  // Everything fits, so the search must actually descend 12 levels --
  // a 3-node budget cannot survive that.
  Instance inst;
  inst.capacity = 1'000'000;
  inst.classes.assign(12, {{0, 1.0}, {1, 2.0}, {2, 3.0}});
  EXPECT_THROW(solve_branch_bound(inst, nullptr, 3), std::runtime_error);
}

TEST(BranchBound, ExactOnRealProfitsWhereDpQuantizes) {
  // Profits differ by less than the DP grid: the DP (scale 1) ties them,
  // branch-and-bound must still find the true optimum.
  Instance inst;
  inst.capacity = 10;
  inst.classes = {{{5, 1.0001}, {6, 1.0002}}, {{4, 2.0}}};
  const Selection bb = solve_branch_bound(inst);
  ASSERT_TRUE(bb.feasible);
  EXPECT_DOUBLE_EQ(bb.profit, 3.0002);
  EXPECT_EQ(bb.pick[0], 1);
}

class BranchBoundProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BranchBoundProperty, MatchesBruteForceExactly) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    const Instance inst = random_instance(rng, 5, 5, 400);
    const Selection bb = solve_branch_bound(inst);
    const Selection bf = solve_brute_force(inst);
    EXPECT_EQ(bb.feasible, bf.feasible);
    if (bf.feasible) {
      EXPECT_NEAR(bb.profit, bf.profit, 1e-9);
      EXPECT_LE(bb.weight, inst.capacity);
    }
  }
}

TEST_P(BranchBoundProperty, DominatesEveryOtherSolver) {
  Rng rng(GetParam() ^ 0xB0Bull);
  for (int trial = 0; trial < 10; ++trial) {
    const Instance inst = random_instance(rng, 8, 6, 800);
    const Selection bb = solve_branch_bound(inst);
    if (!bb.feasible) continue;
    EXPECT_GE(bb.profit, solve_greedy_heu_oe(inst).profit - 1e-9);
    EXPECT_GE(bb.profit, solve_dp_profits(inst).profit - 1e-9);
    EXPECT_LE(bb.profit, lp_upper_bound(inst) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BranchBoundProperty,
                         ::testing::Values(3u, 7u, 11u, 19u, 29u));

}  // namespace
}  // namespace rt::mckp
