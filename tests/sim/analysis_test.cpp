#include "support/trace_analysis.hpp"

#include <gtest/gtest.h>

#include "core/odm.hpp"
#include "core/rta.hpp"
#include "core/workload.hpp"
#include "server/response_model.hpp"
#include "sim/simulator.hpp"

namespace rt::sim {
namespace {

using namespace rt::literals;
using core::make_simple_task;

TEST(TraceAnalysis, SingleTaskResponseEqualsExecution) {
  const core::TaskSet tasks{make_simple_task("a", 100_ms, 30_ms, 1_ms, 30_ms)};
  server::FixedResponse srv(10_ms);
  SimConfig cfg;
  cfg.horizon = 1_s;
  cfg.trace_capacity = 10'000;
  const SimResult res = simulate(tasks, core::all_local(1), srv, cfg);
  ASSERT_FALSE(res.trace.truncated());
  const auto stats = response_stats_from_trace(res.trace, 1);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].response_ms.count(), 10u);
  EXPECT_DOUBLE_EQ(stats[0].response_ms.mean(), 30.0);  // no contention
  EXPECT_DOUBLE_EQ(stats[0].response_ms.max(), 30.0);
  EXPECT_EQ(stats[0].preemptions, 0u);
  EXPECT_EQ(stats[0].incomplete, 0u);
  EXPECT_EQ(max_observed_response(res.trace, 1), 30_ms);
}

TEST(TraceAnalysis, ContendedTasksShowInterferenceAndPreemptions) {
  const core::TaskSet tasks{
      make_simple_task("long", 400_ms, 200_ms, 1_ms, 200_ms),
      make_simple_task("short", 100_ms, 40_ms, 1_ms, 40_ms),
  };
  server::FixedResponse srv(10_ms);
  SimConfig cfg;
  cfg.horizon = 2_s;
  cfg.trace_capacity = 100'000;
  const SimResult res = simulate(tasks, core::all_local(2), srv, cfg);
  const auto stats = response_stats_from_trace(res.trace, 2);
  // The long task suffers the short task's interference: response > WCET.
  EXPECT_GT(stats[0].response_ms.max(), 200.0);
  EXPECT_GT(stats[0].preemptions, 0u);
  // The short task mostly runs unimpeded (40 ms), except when its absolute
  // deadline ties the long task's and FIFO order favours the older job
  // (at t=300 both deadlines are 400): response then stretches to 60 ms.
  EXPECT_DOUBLE_EQ(stats[1].response_ms.min(), 40.0);
  EXPECT_LE(stats[1].response_ms.max(), 60.0);
}

TEST(TraceAnalysis, IncompleteJobsCounted) {
  // A job released near the horizon cannot complete inside it.
  const core::TaskSet tasks{make_simple_task("a", 100_ms, 60_ms, 1_ms, 60_ms)};
  server::FixedResponse srv(10_ms);
  SimConfig cfg;
  cfg.horizon = Duration::milliseconds(950);  // last release at 900, needs 60
  cfg.trace_capacity = 10'000;
  const SimResult res = simulate(tasks, core::all_local(1), srv, cfg);
  const auto stats = response_stats_from_trace(res.trace, 1);
  EXPECT_EQ(stats[0].incomplete, 1u);
  EXPECT_EQ(stats[0].response_ms.count(), 9u);
}

TEST(TraceAnalysis, OutOfRangeTaskThrows) {
  Trace trace(10);
  trace.record(TimePoint::zero(), TraceKind::kRelease, 5, 1);
  EXPECT_THROW(response_stats_from_trace(trace, 2), std::out_of_range);
}

TEST(TraceAnalysis, EmptyTraceIsAllZeros) {
  Trace trace(10);
  const auto stats = response_stats_from_trace(trace, 3);
  for (const auto& s : stats) {
    EXPECT_TRUE(s.response_ms.empty());
    EXPECT_EQ(s.preemptions, 0u);
    EXPECT_EQ(s.incomplete, 0u);
  }
  EXPECT_EQ(max_observed_response(trace, 3), Duration::zero());
}

// Theory-vs-practice sandwich: every observed response under the FP
// simulator stays below the RTA bound.
TEST(TraceAnalysis, ObservedResponsesRespectRtaBound) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    core::RandomTasksetConfig wl;
    wl.num_tasks = 5;
    wl.total_local_utilization = 0.5;
    const core::TaskSet tasks = core::make_random_taskset(rng, wl);
    const core::DecisionVector ds = core::all_local(tasks.size());
    const core::RtaResult rta = core::rta_fixed_priority(tasks, ds);
    if (!rta.feasible) continue;
    server::FixedResponse srv(10_ms);
    SimConfig cfg;
    cfg.horizon = 5_s;
    cfg.trace_capacity = 1'000'000;
    cfg.scheduler_policy = SchedulerPolicy::kFixedPriorityDm;
    const SimResult res = simulate(tasks, ds, srv, cfg);
    ASSERT_FALSE(res.trace.truncated());
    const auto stats = response_stats_from_trace(res.trace, tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (stats[i].response_ms.empty()) continue;
      EXPECT_LE(stats[i].response_ms.max(),
                rta.per_task[i].response.ms() + 1e-6)
          << tasks[i].name << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace rt::sim
