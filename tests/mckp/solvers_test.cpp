#include "mckp/solvers.hpp"

#include <gtest/gtest.h>

#include <cmath>

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

/// Random instance where class item 0 is "free-ish" (the local choice),
/// mirroring the ODM structure.
Instance random_instance(Rng& rng, int num_classes, int max_items,
                         std::int64_t capacity) {
  Instance inst;
  inst.capacity = capacity;
  for (int c = 0; c < num_classes; ++c) {
    const auto n = static_cast<int>(rng.uniform_int(1, max_items));
    std::vector<Item> cls;
    for (int j = 0; j < n; ++j) {
      Item item;
      item.weight = rng.uniform_int(0, capacity / 2);
      item.profit = rng.uniform(0.0, 10.0);
      cls.push_back(item);
    }
    inst.classes.push_back(std::move(cls));
  }
  return inst;
}

TEST(BruteForce, FindsKnownOptimum) {
  const Selection sel = solve_brute_force(small_instance());
  ASSERT_TRUE(sel.feasible);
  // Optimum: (90,9) + (5,0.5) + (0,0) = profit 9.5, weight 95.
  EXPECT_DOUBLE_EQ(sel.profit, 9.5);
  EXPECT_EQ(sel.weight, 95);
}

TEST(BruteForce, ReportsInfeasibleWithMinWeightFallback) {
  Instance inst;
  inst.capacity = 5;
  inst.classes = {{{10, 1.0}, {20, 2.0}}, {{7, 1.0}}};
  const Selection sel = solve_brute_force(inst);
  EXPECT_FALSE(sel.feasible);
  EXPECT_EQ(sel.weight, 17);  // cheapest per class
}

TEST(BruteForce, EmptyInstanceIsTriviallyFeasible) {
  Instance inst;
  inst.capacity = 0;
  const Selection sel = solve_brute_force(inst);
  EXPECT_TRUE(sel.feasible);
  EXPECT_DOUBLE_EQ(sel.profit, 0.0);
}

TEST(BruteForce, RefusesHugeSearchSpaces) {
  Instance inst;
  inst.capacity = 1;
  inst.classes.assign(30, std::vector<Item>(10, Item{0, 0.0}));
  EXPECT_THROW(solve_brute_force(inst), std::invalid_argument);
}

TEST(DpProfits, MatchesKnownOptimum) {
  const Selection sel = solve_dp_profits(small_instance(), 100.0);
  ASSERT_TRUE(sel.feasible);
  EXPECT_DOUBLE_EQ(sel.profit, 9.5);
  EXPECT_EQ(sel.weight, 95);
}

TEST(DpProfits, ExactWeightBoundaryIsRespected) {
  Instance inst;
  inst.capacity = 100;
  inst.classes = {{{50, 1.0}, {51, 10.0}}, {{50, 1.0}}};
  // 51 + 50 = 101 > 100: must settle for 50 + 50.
  const Selection sel = solve_dp_profits(inst, 10.0);
  ASSERT_TRUE(sel.feasible);
  EXPECT_EQ(sel.weight, 100);
  EXPECT_DOUBLE_EQ(sel.profit, 2.0);
}

TEST(DpProfits, InfeasibleReturnsMinWeightSelection) {
  Instance inst;
  inst.capacity = 3;
  inst.classes = {{{10, 1.0}}, {{2, 5.0}, {1, 0.0}}};
  const Selection sel = solve_dp_profits(inst);
  EXPECT_FALSE(sel.feasible);
  EXPECT_EQ(sel.weight, 11);
}

TEST(DpProfits, RejectsBadScaleAndHugeProfitSpace) {
  EXPECT_THROW(solve_dp_profits(small_instance(), 0.0), std::invalid_argument);
  EXPECT_THROW(solve_dp_profits(small_instance(), -1.0), std::invalid_argument);
  Instance inst;
  inst.capacity = 10;
  inst.classes = {{{1, 1e9}}};
  EXPECT_THROW(solve_dp_profits(inst, 1000.0), std::invalid_argument);
}

TEST(DpProfits, ZeroCapacityOnlyFreeItems) {
  Instance inst;
  inst.capacity = 0;
  inst.classes = {{{0, 2.0}, {5, 9.0}}, {{0, 1.0}}};
  const Selection sel = solve_dp_profits(inst);
  ASSERT_TRUE(sel.feasible);
  EXPECT_DOUBLE_EQ(sel.profit, 3.0);
  EXPECT_EQ(sel.weight, 0);
}

TEST(Greedy, FeasibleAndReasonable) {
  const Selection sel = solve_greedy_heu_oe(small_instance());
  ASSERT_TRUE(sel.feasible);
  EXPECT_LE(sel.weight, 100);
  EXPECT_GE(sel.profit, 8.0);  // near-optimal on this easy instance
}

TEST(Greedy, InfeasibleBaseDetected) {
  Instance inst;
  inst.capacity = 5;
  inst.classes = {{{10, 1.0}}, {{7, 1.0}}};
  EXPECT_FALSE(solve_greedy_heu_oe(inst).feasible);
}

TEST(LpBound, AboveEveryFeasibleSolution) {
  const Instance inst = small_instance();
  const double bound = lp_upper_bound(inst);
  EXPECT_GE(bound, solve_brute_force(inst).profit - 1e-9);
  EXPECT_GE(bound, solve_greedy_heu_oe(inst).profit - 1e-9);
}

TEST(LpBound, InfeasibleIsMinusInfinity) {
  Instance inst;
  inst.capacity = 1;
  inst.classes = {{{10, 1.0}}};
  EXPECT_EQ(lp_upper_bound(inst), -std::numeric_limits<double>::infinity());
}

TEST(SolveDispatch, AllKindsRun) {
  const Instance inst = small_instance();
  for (const SolverKind kind :
       {SolverKind::kDpProfits, SolverKind::kHeuOe}) {
    const Selection sel = solve(inst, kind, 100.0);
    EXPECT_TRUE(sel.feasible) << to_string(kind);
  }
}

TEST(SolverNames, AreDistinct) {
  EXPECT_STREQ(to_string(SolverKind::kDpProfits), "dp-profits");
  EXPECT_STREQ(to_string(SolverKind::kHeuOe), "heu-oe");
}

// ---------------------------------------------------------------------------
// Property tests: randomized cross-validation of the solver family.
// ---------------------------------------------------------------------------

class SolverPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverPropertyTest, DpProfitsMatchesBruteForceOnIntegerProfits) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    Instance inst = random_instance(rng, 4, 4, 200);
    // Integral profits => profit_scale 1 is lossless and the DP is exact.
    for (auto& cls : inst.classes) {
      for (auto& item : cls) item.profit = std::floor(item.profit);
    }
    const Selection dp = solve_dp_profits(inst, 1.0);
    const Selection bf = solve_brute_force(inst);
    EXPECT_EQ(dp.feasible, bf.feasible);
    if (bf.feasible) {
      EXPECT_DOUBLE_EQ(dp.profit, bf.profit);
      EXPECT_LE(dp.weight, inst.capacity);
    }
  }
}

TEST_P(SolverPropertyTest, HeuristicNeverBeatsExactAndStaysFeasible) {
  Rng rng(GetParam() ^ 0xABCDEFull);
  for (int trial = 0; trial < 20; ++trial) {
    const Instance inst = random_instance(rng, 5, 5, 500);
    const Selection bf = solve_brute_force(inst);
    const Selection greedy = solve_greedy_heu_oe(inst);
    EXPECT_EQ(greedy.feasible, bf.feasible);
    if (bf.feasible) {
      EXPECT_LE(greedy.weight, inst.capacity);
      EXPECT_LE(greedy.profit, bf.profit + 1e-9);
      EXPECT_LE(bf.profit, lp_upper_bound(inst) + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace rt::mckp
