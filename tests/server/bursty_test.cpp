#include "server/bursty.hpp"

#include <gtest/gtest.h>

#include "core/odm.hpp"
#include "core/workload.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "support/compare.hpp"

namespace rt::server {
namespace {

using namespace rt::literals;

BurstyConfig two_fixed_states(Duration calm, Duration burst) {
  BurstyConfig cfg;
  cfg.calm = std::make_unique<FixedResponse>(calm);
  cfg.burst = std::make_unique<FixedResponse>(burst);
  return cfg;
}

TEST(BurstyResponse, Validation) {
  BurstyConfig cfg = two_fixed_states(10_ms, 100_ms);
  cfg.calm = nullptr;
  EXPECT_THROW(BurstyResponse(std::move(cfg), 1), std::invalid_argument);
  BurstyConfig cfg2 = two_fixed_states(10_ms, 100_ms);
  cfg2.mean_calm_duration = Duration::zero();
  EXPECT_THROW(BurstyResponse(std::move(cfg2), 1), std::invalid_argument);
}

TEST(BurstyResponse, StartsCalm) {
  BurstyResponse model(two_fixed_states(10_ms, 100_ms), 7);
  Rng rng(1);
  Request req;
  req.send_time = TimePoint::zero();
  EXPECT_EQ(model.sample(req, rng), 10_ms);
}

TEST(BurstyResponse, AlternatesStatesOverTime) {
  BurstyResponse model(two_fixed_states(10_ms, 100_ms), 7);
  Rng rng(1);
  Request req;
  int calm_count = 0, burst_count = 0;
  for (int i = 0; i < 3000; ++i) {
    req.send_time = TimePoint::zero() + Duration::milliseconds(10 * i);  // 30 s
    const Duration d = model.sample(req, rng);
    (d == 10_ms ? calm_count : burst_count)++;
  }
  EXPECT_GT(calm_count, 0);
  EXPECT_GT(burst_count, 0);
  // Calm dwell (5 s) dominates burst dwell (1 s): roughly 5:1 time share.
  EXPECT_GT(calm_count, burst_count);
}

TEST(BurstyResponse, ResetReplaysTheSameStateTrajectory) {
  BurstyResponse model(two_fixed_states(10_ms, 100_ms), 21);
  Rng rng(3);
  Request req;
  std::vector<Duration> first;
  for (int i = 0; i < 500; ++i) {
    req.send_time = TimePoint::zero() + Duration::milliseconds(40 * i);
    first.push_back(model.sample(req, rng));
  }
  model.reset();
  Rng rng2(3);
  for (int i = 0; i < 500; ++i) {
    req.send_time = TimePoint::zero() + Duration::milliseconds(40 * i);
    EXPECT_EQ(model.sample(req, rng2), first[static_cast<std::size_t>(i)]);
  }
}

// The BatchRunner replication contract: clone() must be a pristine instance
// with the same configuration and seed, so original, clone, and a reset
// original all replay the same state trajectory bit for bit.
TEST(BurstyResponse, CloneAndResetReplayBitIdentically) {
  for (const std::uint64_t seed : {1ull, 21ull, 0xBEEFull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    BurstyResponse original(two_fixed_states(10_ms, 100_ms), seed);
    Request req;
    std::vector<Duration> first;
    {
      Rng rng(3);
      for (int i = 0; i < 500; ++i) {
        req.send_time = TimePoint::zero() + Duration::milliseconds(40 * i);
        first.push_back(original.sample(req, rng));
      }
    }
    const std::unique_ptr<ResponseModel> fresh = original.clone();
    original.reset();
    Rng rng_clone(3), rng_reset(3);
    for (int i = 0; i < 500; ++i) {
      req.send_time = TimePoint::zero() + Duration::milliseconds(40 * i);
      EXPECT_EQ(fresh->sample(req, rng_clone), first[static_cast<std::size_t>(i)])
          << "clone diverged at sample " << i;
      EXPECT_EQ(original.sample(req, rng_reset), first[static_cast<std::size_t>(i)])
          << "reset replay diverged at sample " << i;
    }
  }
}

TEST(BurstyResponse, InBurstAtTracksState) {
  BurstyResponse model(two_fixed_states(10_ms, 100_ms), 5);
  EXPECT_FALSE(model.in_burst_at(TimePoint::zero()));
  // Over a long horizon the state must flip at least once.
  bool saw_burst = false;
  for (int sec = 0; sec < 60 && !saw_burst; ++sec) {
    saw_burst = model.in_burst_at(TimePoint::zero() + Duration::seconds(sec));
  }
  EXPECT_TRUE(saw_burst);
}

TEST(BurstyResponse, DefaultPresetBurstsAreSlower) {
  auto model = make_default_bursty(11);
  Rng rng(2);
  Request req;
  RunningStats calm_ms, burst_ms;
  for (int i = 0; i < 5000; ++i) {
    req.send_time = TimePoint::zero() + Duration::milliseconds(20 * i);
    const bool burst = model->in_burst_at(req.send_time);
    const Duration d = model->sample(req, rng);
    if (d == kNoResponse) continue;
    (burst ? burst_ms : calm_ms).add(d.ms());
  }
  ASSERT_GT(calm_ms.count(), 100u);
  ASSERT_GT(burst_ms.count(), 50u);
  EXPECT_GT(burst_ms.mean(), calm_ms.mean() * 5.0);
}

// End-to-end: the guarantee holds through bursts -- compensations spike,
// deadlines do not.
TEST(BurstyResponse, GuaranteeSurvivesBursts) {
  Rng rng(2024);
  const core::TaskSet tasks = core::make_paper_simulation_taskset(rng);
  const core::OdmResult odm = core::decide_offloading(tasks);
  ASSERT_TRUE(odm.feasible);
  auto srv = make_default_bursty(99);
  sim::SimConfig cfg;
  cfg.horizon = 60_s;
  const sim::SimResult res = sim::simulate(tasks, odm.decisions, *srv, cfg);
  EXPECT_TRUE(sim::no_misses(res.metrics));
  EXPECT_GT(res.metrics.total_compensations(), 0u);
  EXPECT_GT(res.metrics.total_timely_results(), 0u);
}

}  // namespace
}  // namespace rt::server
