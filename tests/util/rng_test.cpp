#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace rt {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(17);
  EXPECT_EQ(rng.uniform_int(42, 42), 42);
  EXPECT_THROW(rng.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, -1);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, -1);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(23);
  const int n = 200'000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(29);
  const int n = 200'000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, LognormalIsPositiveWithMatchingMedian) {
  Rng rng(31);
  const int n = 100'000;
  std::vector<double> xs;
  xs.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double x = rng.lognormal(1.0, 0.5);
    EXPECT_GT(x, 0.0);
    xs.push_back(x);
  }
  std::nth_element(xs.begin(), xs.begin() + n / 2, xs.end());
  EXPECT_NEAR(xs[n / 2], std::exp(1.0), 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(37);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng a(1);
  Rng b = a.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(UUniFast, SumsToTargetAndStaysPositive) {
  Rng rng(43);
  for (int trial = 0; trial < 50; ++trial) {
    const auto u = uunifast(rng, 8, 0.75);
    ASSERT_EQ(u.size(), 8u);
    double sum = 0.0;
    for (const double x : u) {
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, 0.75 + 1e-12);
      sum += x;
    }
    EXPECT_NEAR(sum, 0.75, 1e-9);
  }
}

TEST(UUniFast, RejectsNonPositiveN) {
  Rng rng(47);
  EXPECT_THROW(uunifast(rng, 0, 0.5), std::invalid_argument);
}

}  // namespace
}  // namespace rt
