#include "server/routing.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/odm.hpp"
#include "core/workload.hpp"
#include "server/bursty.hpp"
#include "sim/simulator.hpp"
#include "support/compare.hpp"

namespace rt::server {
namespace {

using namespace rt::literals;

std::unique_ptr<RoutingResponse> two_route_model() {
  std::vector<std::unique_ptr<ResponseModel>> routes;
  routes.push_back(std::make_unique<FixedResponse>(10_ms));
  routes.push_back(std::make_unique<FixedResponse>(70_ms));
  return std::make_unique<RoutingResponse>(std::move(routes),
                                           std::vector<std::size_t>{0, 1});
}

TEST(RoutingResponse, RoutesByStreamId) {
  auto model = two_route_model();
  Rng rng(1);
  Request req;
  req.stream_id = 0;
  EXPECT_EQ(model->sample(req, rng), 10_ms);
  req.stream_id = 1;
  EXPECT_EQ(model->sample(req, rng), 70_ms);
}

// A stream past the mapping is an unknown task, not the last route's:
// both sampling paths reject it, as BenefitDrivenResponse does.
TEST(RoutingResponse, StreamsBeyondMappingAreRejected) {
  auto model = two_route_model();
  Rng rng(1);
  Request req;
  req.stream_id = 2;
  EXPECT_THROW((void)model->sample(req, rng), std::out_of_range);
  std::vector<Rng> rngs{Rng(1), Rng(2)};
  std::vector<Duration> out(2);
  EXPECT_THROW(model->sample_n(req, rngs, out), std::out_of_range);
  EXPECT_THROW((void)model->route_for(99), std::out_of_range);
  EXPECT_EQ(model->route_for(1), 1u);
}

TEST(RoutingResponse, Validation) {
  EXPECT_THROW(RoutingResponse({}, {0}), std::invalid_argument);
  std::vector<std::unique_ptr<ResponseModel>> routes;
  routes.push_back(std::make_unique<FixedResponse>(10_ms));
  EXPECT_THROW(RoutingResponse(std::move(routes), {}), std::invalid_argument);
  std::vector<std::unique_ptr<ResponseModel>> routes2;
  routes2.push_back(std::make_unique<FixedResponse>(10_ms));
  EXPECT_THROW(RoutingResponse(std::move(routes2), {5}), std::invalid_argument);
  std::vector<std::unique_ptr<ResponseModel>> routes3;
  routes3.push_back(nullptr);
  EXPECT_THROW(RoutingResponse(std::move(routes3), {0}), std::invalid_argument);
}

// The BatchRunner replication contract through the router: clone() deep-
// copies every route (pristine, same seeds), reset() rewinds them, and all
// three replay bit-identically over the same request/Rng streams -- even
// with a stateful bursty route in the mix.
TEST(RoutingResponse, CloneAndResetReplayBitIdentically) {
  std::vector<std::unique_ptr<ResponseModel>> routes;
  routes.push_back(
      std::make_unique<ShiftedLognormalResponse>(5_ms, 2.0, 0.6, 0.1));
  routes.push_back(make_default_bursty(77));
  RoutingResponse original(std::move(routes), {0, 1});

  Request req;
  std::vector<Duration> first;
  {
    Rng rng(9);
    for (int i = 0; i < 600; ++i) {
      req.send_time = TimePoint::zero() + Duration::milliseconds(30 * i);
      req.stream_id = static_cast<std::size_t>(i) % 2;
      first.push_back(original.sample(req, rng));
    }
  }
  const std::unique_ptr<ResponseModel> fresh = original.clone();
  original.reset();
  Rng rng_clone(9), rng_reset(9);
  for (int i = 0; i < 600; ++i) {
    req.send_time = TimePoint::zero() + Duration::milliseconds(30 * i);
    req.stream_id = static_cast<std::size_t>(i) % 2;
    EXPECT_EQ(fresh->sample(req, rng_clone), first[static_cast<std::size_t>(i)])
        << "clone diverged at sample " << i;
    EXPECT_EQ(original.sample(req, rng_reset), first[static_cast<std::size_t>(i)])
        << "reset replay diverged at sample " << i;
  }
}

TEST(RoutingResponse, TwoComponentsEndToEnd) {
  // Task 0 targets a fast local accelerator, task 1 a dead remote box: the
  // first always succeeds, the second always compensates -- with zero
  // deadline misses for both.
  core::TaskSet tasks;
  core::Task fast = core::make_simple_task("fast", 100_ms, 30_ms, 3_ms, 30_ms);
  fast.benefit = core::BenefitFunction({{0_ms, 1.0}, {40_ms, 8.0}});
  core::Task doomed = core::make_simple_task("doomed", 200_ms, 40_ms, 4_ms, 40_ms);
  doomed.benefit = core::BenefitFunction({{0_ms, 1.0}, {60_ms, 9.0}});
  tasks.push_back(fast);
  tasks.push_back(doomed);

  const core::DecisionVector ds{core::Decision::offload(1, 40_ms),
                                core::Decision::offload(1, 60_ms)};
  std::vector<std::unique_ptr<ResponseModel>> routes;
  routes.push_back(std::make_unique<FixedResponse>(15_ms));
  routes.push_back(std::make_unique<NeverResponds>());
  RoutingResponse srv(std::move(routes), {0, 1});

  sim::SimConfig cfg;
  cfg.horizon = 2_s;
  const sim::SimResult res = sim::simulate(tasks, ds, srv, cfg);
  EXPECT_EQ(res.metrics.per_task[0].timely_results,
            res.metrics.per_task[0].offload_attempts);
  EXPECT_EQ(res.metrics.per_task[0].compensations, 0u);
  EXPECT_EQ(res.metrics.per_task[1].timely_results, 0u);
  EXPECT_GT(res.metrics.per_task[1].compensations, 0u);
  EXPECT_TRUE(sim::no_misses(res.metrics));
}

}  // namespace
}  // namespace rt::server
