#include "util/fixedpoint.hpp"

#include <gtest/gtest.h>

namespace rt {
namespace {

TEST(UtilFp, RatioCeilRoundsUp) {
  // 1/3 in fixed point: ceil keeps the value >= the true ratio.
  const UtilFp third = UtilFp::ratio_ceil(1, 3);
  EXPECT_EQ(third.raw(), 333'333'333'333'333'334LL);
  // raw*3 strictly exceeds one: the representation is never optimistic.
  EXPECT_GT(static_cast<__int128>(third.raw()) * 3,
            static_cast<__int128>(UtilFp::kOneRaw));
}

TEST(UtilFp, ExactRatiosHaveNoRounding) {
  EXPECT_EQ(UtilFp::ratio_ceil(1, 2).raw(), UtilFp::kOneRaw / 2);
  EXPECT_EQ(UtilFp::ratio_ceil(5, 5), UtilFp::one());
}

TEST(UtilFp, SchedulabilityBoundaryIsExact) {
  // Three tasks of utilization exactly 1/3 with round-up must NOT fit in 1
  // (pessimistic by 3e-18), while 1/4 * 4 fits exactly.
  const UtilFp third = UtilFp::ratio_ceil(1, 3);
  EXPECT_GT(third.add_sat(third).add_sat(third), UtilFp::one());
  const UtilFp quarter = UtilFp::ratio_ceil(1, 4);
  EXPECT_EQ(quarter.add_sat(quarter).add_sat(quarter).add_sat(quarter),
            UtilFp::one());
}

TEST(UtilFp, NanosecondScaleRatios) {
  // Typical task: C = 20 ms, T = 700 ms in nanoseconds.
  const UtilFp u = UtilFp::ratio_ceil(20'000'000, 700'000'000);
  EXPECT_NEAR(u.to_double(), 20.0 / 700.0, 1e-15);
}

TEST(UtilFp, SaturationIsAbsorbing) {
  const UtilFp sat = UtilFp::saturated();
  EXPECT_TRUE(sat.is_saturated());
  EXPECT_TRUE(sat.add_sat(UtilFp::one()).is_saturated());
  EXPECT_TRUE(UtilFp::one().add_sat(sat).is_saturated());
  EXPECT_GT(sat, UtilFp::one());
}

TEST(UtilFp, AdditionSaturatesInsteadOfWrapping) {
  UtilFp big = UtilFp::ratio_ceil(9, 1);  // 9.0
  UtilFp acc = UtilFp::zero();
  for (int i = 0; i < 3; ++i) acc = acc.add_sat(big);
  EXPECT_TRUE(acc.is_saturated());
}

TEST(UtilFp, HugeRatioSaturates) {
  EXPECT_TRUE(UtilFp::ratio_ceil(INT64_MAX / 2, 1).is_saturated());
}

TEST(UtilFp, InvalidArgumentsThrow) {
  EXPECT_THROW((void)UtilFp::ratio_ceil(1, 0), std::invalid_argument);
  EXPECT_THROW((void)UtilFp::ratio_ceil(1, -5), std::invalid_argument);
  EXPECT_THROW((void)UtilFp::ratio_ceil(-1, 5), std::invalid_argument);
}

TEST(UtilFp, ManySmallTermsDoNotOverflow) {
  // 1000 terms of ~1e-3 accumulate exactly to ~1 without overflow -- the
  // scenario that kills int64 rationals.
  UtilFp acc = UtilFp::zero();
  for (int i = 0; i < 1000; ++i) {
    acc = acc.add_sat(UtilFp::ratio_ceil(1'000'000, 1'000'000'000));
  }
  EXPECT_EQ(acc, UtilFp::one());
}

TEST(UtilFp, OrderingMatchesRationalOrdering) {
  EXPECT_LT(UtilFp::ratio_ceil(1, 3), UtilFp::ratio_ceil(1, 2));
  EXPECT_LT(UtilFp::ratio_ceil(2, 5), UtilFp::ratio_ceil(1, 2));
  EXPECT_LT(UtilFp::zero(), UtilFp::ratio_ceil(1, 1000000000));
}

}  // namespace
}  // namespace rt
