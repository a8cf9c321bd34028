#include "mckp/instance.hpp"

#include <gtest/gtest.h>

namespace rt::mckp {
namespace {

Instance two_class_instance() {
  Instance inst;
  inst.capacity = 100;
  inst.classes = {
      {{10, 1.0}, {40, 5.0}, {90, 9.0}},
      {{5, 0.5}, {60, 4.0}},
  };
  return inst;
}

TEST(Instance, ValidateAcceptsWellFormed) {
  EXPECT_NO_THROW(two_class_instance().validate());
}

TEST(Instance, ValidateRejectsDefects) {
  Instance inst = two_class_instance();
  inst.capacity = -1;
  EXPECT_THROW(inst.validate(), std::invalid_argument);

  inst = two_class_instance();
  inst.classes[1].clear();
  EXPECT_THROW(inst.validate(), std::invalid_argument);

  inst = two_class_instance();
  inst.classes[0][0].weight = -3;
  EXPECT_THROW(inst.validate(), std::invalid_argument);

  inst = two_class_instance();
  inst.classes[0][0].profit = -0.5;
  EXPECT_THROW(inst.validate(), std::invalid_argument);

  inst = two_class_instance();
  inst.classes[0][0].profit = std::numeric_limits<double>::infinity();
  EXPECT_THROW(inst.validate(), std::invalid_argument);

  inst = two_class_instance();
  inst.classes[0][0].weight = kInfWeight;
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(Evaluate, ComputesProfitWeightFeasibility) {
  const Instance inst = two_class_instance();
  const Selection sel = evaluate(inst, {1, 1});
  EXPECT_DOUBLE_EQ(sel.profit, 9.0);
  EXPECT_EQ(sel.weight, 100);
  EXPECT_TRUE(sel.feasible);

  const Selection over = evaluate(inst, {2, 1});
  EXPECT_EQ(over.weight, 150);
  EXPECT_FALSE(over.feasible);
}

TEST(Evaluate, RejectsMalformedPicks) {
  const Instance inst = two_class_instance();
  EXPECT_THROW(evaluate(inst, {0}), std::out_of_range);
  EXPECT_THROW(evaluate(inst, {0, 5}), std::out_of_range);
  EXPECT_THROW(evaluate(inst, {-1, 0}), std::out_of_range);
}

TEST(AddWeightSat, SaturatesAtInfWeight) {
  EXPECT_EQ(add_weight_sat(1, 2), 3);
  EXPECT_EQ(add_weight_sat(kInfWeight, 1), kInfWeight);
  EXPECT_EQ(add_weight_sat(kInfWeight - 1, 5), kInfWeight);
  EXPECT_EQ(add_weight_sat(kInfWeight, kInfWeight), kInfWeight);
}

TEST(ReduceClass, RemovesDominatedItems) {
  // Item (40, 2.0) is dominated by (10, 3.0): heavier and less profitable.
  const std::vector<Item> cls{{10, 3.0}, {40, 2.0}, {50, 6.0}};
  const ReducedClass red = reduce_class(cls);
  ASSERT_EQ(red.undominated.size(), 2u);
  EXPECT_EQ(red.undominated[0], 0);
  EXPECT_EQ(red.undominated[1], 2);
}

TEST(ReduceClass, EqualWeightKeepsBestProfit) {
  const std::vector<Item> cls{{10, 1.0}, {10, 4.0}, {10, 2.0}};
  const ReducedClass red = reduce_class(cls);
  ASSERT_EQ(red.undominated.size(), 1u);
  EXPECT_EQ(red.undominated[0], 1);
  ASSERT_EQ(red.hull.size(), 1u);
}

TEST(ReduceClass, HullDropsLpDominatedItems) {
  // (20, 2): the segment (0,0)->(40,8) passes above it (value 4 at w=20),
  // so it is LP-dominated but not plainly dominated.
  const std::vector<Item> cls{{0, 0.0}, {20, 2.0}, {40, 8.0}};
  const ReducedClass red = reduce_class(cls);
  EXPECT_EQ(red.undominated.size(), 3u);
  ASSERT_EQ(red.hull.size(), 2u);
  EXPECT_EQ(red.hull[0], 0);
  EXPECT_EQ(red.hull[1], 2);
}

TEST(ReduceClass, HullEfficienciesStrictlyDecrease) {
  const std::vector<Item> cls{{0, 0.0}, {10, 5.0}, {20, 8.0}, {30, 9.0}, {40, 9.5}};
  const ReducedClass red = reduce_class(cls);
  ASSERT_GE(red.hull.size(), 2u);
  double prev_eff = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k < red.hull.size(); ++k) {
    const auto& a = cls[static_cast<std::size_t>(red.hull[k - 1])];
    const auto& b = cls[static_cast<std::size_t>(red.hull[k])];
    const double eff = (b.profit - a.profit) / static_cast<double>(b.weight - a.weight);
    EXPECT_LT(eff, prev_eff);
    prev_eff = eff;
  }
}

TEST(ReduceClass, CollinearMiddlePointRemoved) {
  const std::vector<Item> cls{{0, 0.0}, {10, 5.0}, {20, 10.0}};
  const ReducedClass red = reduce_class(cls);
  ASSERT_EQ(red.hull.size(), 2u);
  EXPECT_EQ(red.hull[0], 0);
  EXPECT_EQ(red.hull[1], 2);
}

TEST(ReduceClass, EmptyClassThrows) {
  EXPECT_THROW(reduce_class({}), std::invalid_argument);
}

TEST(SelectionToString, MentionsFeasibilityAndPicks) {
  const Instance inst = two_class_instance();
  const Selection sel = evaluate(inst, {0, 0});
  const std::string s = sel.to_string();
  EXPECT_NE(s.find("feasible"), std::string::npos);
  EXPECT_NE(s.find("[0,0]"), std::string::npos);
}

}  // namespace
}  // namespace rt::mckp
