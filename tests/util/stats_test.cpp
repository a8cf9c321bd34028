#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace rt {
namespace {

TEST(RunningStats, EmptyIsZeroed) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleSampleVarianceIsZero) {
  RunningStats s;
  s.add(3.14);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(5);
  RunningStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 1.5);
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  RunningStats a_copy = a;
  a.merge(b);  // empty rhs: unchanged
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a_copy);  // empty lhs: becomes rhs
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

DurationStats stats_of(const std::vector<std::int64_t>& ns) {
  DurationStats s;
  for (const std::int64_t x : ns) s.add(Duration(x));
  return s;
}

/// Every stored integer and every statistic read from them, bit for bit.
void expect_identical(const DurationStats& a, const DurationStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum_ns(), b.sum_ns());
  EXPECT_TRUE(a.sum_sq_ns2() == b.sum_sq_ns2());
  EXPECT_EQ(a.min_ns(), b.min_ns());
  EXPECT_EQ(a.max_ns(), b.max_ns());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean()),
            std::bit_cast<std::uint64_t>(b.mean()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.variance()),
            std::bit_cast<std::uint64_t>(b.variance()));
}

TEST(DurationStats, EmptyIsZeroed) {
  const DurationStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
  EXPECT_EQ(s.min_ns(), 0);
  EXPECT_EQ(s.max_ns(), 0);
}

TEST(DurationStats, OneSample) {
  const DurationStats s = stats_of({3'140'000});
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 3.14);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 3.14);
  EXPECT_EQ(s.max(), 3.14);
  EXPECT_EQ(s.sum(), 3.14);
}

TEST(DurationStats, KnownMomentsInMilliseconds) {
  const DurationStats s = stats_of({2'000'000, 4'000'000, 4'000'000, 4'000'000,
                                    5'000'000, 5'000'000, 7'000'000, 9'000'000});
  EXPECT_EQ(s.count(), 8u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 32.0 / 7.0);  // sample variance, correctly rounded
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.sum(), 40.0);
}

TEST(DurationStats, MomentsMatchAnExactTwoPassReference) {
  Rng rng(11);
  std::vector<std::int64_t> xs;
  for (int i = 0; i < 5000; ++i) {
    xs.push_back(rng.uniform_int(-1'000'000, 399'000'000));
  }
  const DurationStats s = stats_of(xs);
  const auto n = static_cast<std::int64_t>(xs.size());
  __int128 sum = 0;
  __int128 sum_sq = 0;
  for (const std::int64_t x : xs) {
    sum += x;
    sum_sq += static_cast<__int128>(x) * x;
  }
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_TRUE(s.sum_ns() == sum);
  EXPECT_TRUE(s.sum_sq_ns2() == sum_sq);
  EXPECT_EQ(s.min_ns(), *std::ranges::min_element(xs));
  EXPECT_EQ(s.max_ns(), *std::ranges::max_element(xs));
  EXPECT_EQ(s.min(), Duration(s.min_ns()).ms());
  EXPECT_EQ(s.max(), Duration(s.max_ns()).ms());
  // Second pass on exact integers: sum (n x - sum)^2 = n^2 (n-1) s^2.
  __int128 dev_sq = 0;
  for (const std::int64_t x : xs) {
    const __int128 dev = n * static_cast<__int128>(x) - sum;
    dev_sq += dev * dev;
  }
  const long double mean_ms = static_cast<long double>(sum) / n / 1e6L;
  const long double var_ms2 = static_cast<long double>(dev_sq) /
                              (static_cast<long double>(n) * n * (n - 1)) / 1e12L;
  EXPECT_DOUBLE_EQ(s.mean(), static_cast<double>(mean_ms));
  EXPECT_DOUBLE_EQ(s.variance(), static_cast<double>(var_ms2));
}

TEST(DurationStats, MergeOfEverySplitAndOrderIsBitIdentical) {
  const std::vector<std::int64_t> xs = {7'250'001, 3, 19'999'999, 0,          5'000'000,
                                        123'456,   9, 88'888'888, 5'000'000, 1};
  const DurationStats whole = stats_of(xs);
  std::vector<std::int64_t> shuffled = xs;
  std::reverse(shuffled.begin(), shuffled.end());
  expect_identical(stats_of(shuffled), whole);
  std::rotate(shuffled.begin(), shuffled.begin() + 3, shuffled.end());
  expect_identical(stats_of(shuffled), whole);
  for (std::size_t k = 0; k <= xs.size(); ++k) {
    SCOPED_TRACE("split at " + std::to_string(k));
    const std::vector<std::int64_t> head(xs.begin(), xs.begin() + static_cast<long>(k));
    const std::vector<std::int64_t> tail(xs.begin() + static_cast<long>(k), xs.end());
    DurationStats ab = stats_of(head);
    ab.merge(stats_of(tail));
    expect_identical(ab, whole);
    DurationStats ba = stats_of(tail);
    ba.merge(stats_of(head));
    expect_identical(ba, whole);
  }
}

TEST(DurationStats, MergeWithEmptySides) {
  const DurationStats two = stats_of({1'000'000, 3'000'000});
  DurationStats a = two;
  a.merge(DurationStats{});  // empty rhs: unchanged
  expect_identical(a, two);
  DurationStats b;
  b.merge(two);  // empty lhs: becomes rhs
  expect_identical(b, two);
  DurationStats e;
  e.merge(DurationStats{});
  expect_identical(e, DurationStats{});
  EXPECT_EQ(e.min_ns(), 0);
}

TEST(DurationStats, AMillionSamplesNear2To40NsStayExact) {
  // x_i = 2^40 + (i mod 1000) ns: count * max is about 2^60, inside the
  // header's 2^63 bound; under UBSan an overflow would report.
  constexpr std::int64_t kBase = std::int64_t{1} << 40;
  constexpr std::int64_t kN = 1'000'000;
  DurationStats s;
  DurationStats halves[2];
  for (std::int64_t i = 0; i < kN; ++i) {
    s.add(Duration(kBase + i % 1000));
    halves[i % 2].add(Duration(kBase + i % 1000));
  }
  // Each residue 0..999 appears kN / 1000 times.
  const std::int64_t residues = 999 * 1000 / 2;
  const __int128 residue_squares = __int128{999} * 1000 * 1999 / 6;
  EXPECT_EQ(s.count(), static_cast<std::size_t>(kN));
  EXPECT_EQ(s.sum_ns(), kN * kBase + kN / 1000 * residues);
  EXPECT_TRUE(s.sum_sq_ns2() == __int128{kN} * kBase * kBase +
                                     __int128{2} * kBase * (kN / 1000 * residues) +
                                     kN / 1000 * residue_squares);
  EXPECT_EQ(s.min_ns(), kBase);
  EXPECT_EQ(s.max_ns(), kBase + 999);
  EXPECT_DOUBLE_EQ(s.mean(), (static_cast<double>(kBase) + 499.5) / 1e6);
  // The residues' spread, with no cancellation against the 2^40 offset:
  // sum (r - 499.5)^2 over 0..999 is 1000 (1000^2 - 1) / 12.
  EXPECT_DOUBLE_EQ(s.variance(), 1000.0 * 83'333'250.0 / (kN - 1) / 1e12);
  halves[0].merge(halves[1]);
  expect_identical(halves[0], s);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 17.5);
}

TEST(Percentile, SingleElementAndErrors) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 90), 7.0);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -1), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, std::nan("")), std::invalid_argument);
}

TEST(Percentile, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(percentile({30, 10, 40, 20}, 50), 25);
}

}  // namespace
}  // namespace rt
