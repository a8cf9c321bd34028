#include "server/estimator.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace rt::server {
namespace {

using namespace rt::literals;

std::vector<Duration> ladder() {
  // 10, 20, ..., 100 ms.
  std::vector<Duration> v;
  for (int i = 1; i <= 10; ++i) v.push_back(Duration::milliseconds(10 * i));
  return v;
}

TEST(ResponsePercentile, NearestRank) {
  const auto samples = ladder();
  EXPECT_EQ(response_percentile(samples, 0), 10_ms);
  EXPECT_EQ(response_percentile(samples, 50), 60_ms);
  EXPECT_EQ(response_percentile(samples, 90), 100_ms);
  EXPECT_EQ(response_percentile(samples, 100), 100_ms);
}

TEST(ResponsePercentile, DropsCountAsSlowest) {
  auto samples = ladder();
  samples.push_back(kNoResponse);
  samples.push_back(kNoResponse);
  // 12 samples, 2 drops: the 95th percentile lands on a drop.
  EXPECT_EQ(response_percentile(samples, 95), kNoResponse);
  EXPECT_NE(response_percentile(samples, 80), kNoResponse);
}

TEST(ResponsePercentile, Validation) {
  EXPECT_THROW(response_percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(response_percentile(ladder(), -1), std::invalid_argument);
  EXPECT_THROW(response_percentile(ladder(), 101), std::invalid_argument);
  EXPECT_THROW(response_percentile(ladder(), std::nan("")), std::invalid_argument);
}

TEST(SuccessProbability, CountsTimelyFraction) {
  const auto samples = ladder();
  EXPECT_DOUBLE_EQ(success_probability(samples, 100_ms), 1.0);
  EXPECT_DOUBLE_EQ(success_probability(samples, 50_ms), 0.5);
  EXPECT_DOUBLE_EQ(success_probability(samples, 5_ms), 0.0);
}

TEST(SuccessProbability, DropsAreFailures) {
  auto samples = ladder();
  for (int i = 0; i < 10; ++i) samples.push_back(kNoResponse);
  EXPECT_DOUBLE_EQ(success_probability(samples, 100_ms), 0.5);
}

TEST(BuildSuccessCurve, MonotoneAndDeduplicated) {
  const auto samples = ladder();
  const auto curve = build_success_curve(samples, {10, 30, 50, 70, 90});
  ASSERT_GE(curve.size(), 2u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].response_time, curve[i - 1].response_time);
    EXPECT_GE(curve[i].success_probability, curve[i - 1].success_probability);
  }
  // Every point is self-consistent: P[resp <= r] measured at its own r.
  for (const auto& p : curve) {
    EXPECT_DOUBLE_EQ(p.success_probability,
                     success_probability(samples, p.response_time));
  }
}

TEST(BuildSuccessCurve, SkipsUnusableHighPercentiles) {
  std::vector<Duration> samples{10_ms, kNoResponse, kNoResponse, kNoResponse};
  const auto curve = build_success_curve(samples, {10, 99});
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_EQ(curve[0].response_time, 10_ms);
}

}  // namespace
}  // namespace rt::server
