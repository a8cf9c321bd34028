#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "core/odm.hpp"
#include "server/gpu_server.hpp"
#include "support/compare.hpp"

namespace rt::sim {
namespace {

using namespace rt::literals;
using core::BenefitFunction;
using core::BenefitPoint;
using core::Decision;
using core::DecisionVector;
using core::Task;
using core::TaskSet;
using core::make_simple_task;

Task offload_task(std::string name, Duration period, Duration local,
                  Duration setup, Duration r, double g_local, double g_offload) {
  Task t = make_simple_task(std::move(name), period, local, setup, local);
  t.benefit = BenefitFunction({{0_ms, g_local}, {r, g_offload}});
  return t;
}

SimConfig quick_config(Duration horizon = Duration::seconds(1)) {
  SimConfig cfg;
  cfg.horizon = horizon;
  cfg.trace_capacity = 10'000;
  return cfg;
}

TEST(Simulator, LocalOnlyPeriodicRunsEveryJob) {
  const TaskSet tasks{make_simple_task("a", 100_ms, 30_ms, 1_ms, 30_ms)};
  server::FixedResponse srv(10_ms);
  const SimResult res =
      simulate(tasks, core::all_local(1), srv, quick_config());
  const auto& m = res.metrics.per_task[0];
  EXPECT_EQ(m.released, 10u);  // releases at 0, 100, ..., 900
  EXPECT_EQ(m.completed, 10u);
  EXPECT_EQ(m.local_runs, 10u);
  EXPECT_EQ(m.deadline_misses, 0u);
  EXPECT_EQ(m.offload_attempts, 0u);
  // 10 jobs x 30ms on a 1s horizon.
  EXPECT_NEAR(res.metrics.cpu_utilization(), 0.3, 1e-9);
}

TEST(Simulator, FastServerResultsArriveTimely) {
  const TaskSet tasks{offload_task("a", 100_ms, 30_ms, 5_ms, 50_ms, 1.0, 8.0)};
  const DecisionVector ds{Decision::offload(1, 50_ms)};
  server::FixedResponse srv(20_ms);  // well under R = 50ms
  const SimResult res = simulate(tasks, ds, srv, quick_config());
  const auto& m = res.metrics.per_task[0];
  EXPECT_EQ(m.offload_attempts, 10u);
  EXPECT_EQ(m.timely_results, 10u);
  EXPECT_EQ(m.compensations, 0u);
  EXPECT_EQ(m.deadline_misses, 0u);
  // Quality semantics: each job earns G(level 1) = 8.
  EXPECT_DOUBLE_EQ(m.accrued_benefit, 80.0);
  // Offloading means only setup (5ms) runs locally per period (post = 0).
  EXPECT_NEAR(res.metrics.cpu_utilization(), 0.05, 1e-9);
}

TEST(Simulator, SlowServerTriggersCompensationEveryJob) {
  const TaskSet tasks{offload_task("a", 100_ms, 30_ms, 5_ms, 50_ms, 1.0, 8.0)};
  const DecisionVector ds{Decision::offload(1, 50_ms)};
  server::FixedResponse srv(80_ms);  // beyond R = 50ms
  const SimResult res = simulate(tasks, ds, srv, quick_config());
  const auto& m = res.metrics.per_task[0];
  EXPECT_EQ(m.timely_results, 0u);
  EXPECT_EQ(m.compensations, 10u);
  EXPECT_EQ(m.late_results, 10u);
  EXPECT_EQ(m.deadline_misses, 0u);  // the whole point of the mechanism
  // Compensation earns only G(0) = 1 per job.
  EXPECT_DOUBLE_EQ(m.accrued_benefit, 10.0);
  // Setup + compensation: (5 + 30) ms per 100ms.
  EXPECT_NEAR(res.metrics.cpu_utilization(), 0.35, 1e-9);
}

TEST(Simulator, DeadServerStillMeetsDeadlines) {
  const TaskSet tasks{offload_task("a", 100_ms, 30_ms, 5_ms, 50_ms, 1.0, 8.0)};
  const DecisionVector ds{Decision::offload(1, 50_ms)};
  server::NeverResponds srv;
  const SimResult res = simulate(tasks, ds, srv, quick_config());
  const auto& m = res.metrics.per_task[0];
  EXPECT_EQ(m.compensations, 10u);
  EXPECT_EQ(m.late_results, 0u);  // nothing ever arrived
  EXPECT_TRUE(no_misses(res.metrics));
}

TEST(Simulator, ResponseAtExactlyRCountsAsTimely) {
  const TaskSet tasks{offload_task("a", 100_ms, 30_ms, 5_ms, 50_ms, 1.0, 8.0)};
  const DecisionVector ds{Decision::offload(1, 50_ms)};
  server::FixedResponse srv(50_ms);
  const SimResult res = simulate(tasks, ds, srv, quick_config());
  EXPECT_EQ(res.metrics.per_task[0].timely_results, 10u);
}

TEST(Simulator, TimelyCountSemanticsEarnsOnePerResult) {
  const TaskSet tasks{offload_task("a", 100_ms, 30_ms, 5_ms, 50_ms, 0.0, 0.4)};
  const DecisionVector ds{Decision::offload(1, 50_ms)};
  server::FixedResponse srv(10_ms);
  SimConfig cfg = quick_config();
  cfg.benefit_semantics = BenefitSemantics::kTimelyCount;
  const SimResult res = simulate(tasks, ds, srv, cfg);
  // 10 timely results count 1.0 each regardless of G's value.
  EXPECT_DOUBLE_EQ(res.metrics.per_task[0].accrued_benefit, 10.0);
}

TEST(Simulator, PostProcessingRunsWhenConfigured) {
  TaskSet tasks{offload_task("a", 100_ms, 30_ms, 5_ms, 50_ms, 1.0, 8.0)};
  tasks[0].post_wcet = 10_ms;
  const DecisionVector ds{Decision::offload(1, 50_ms)};
  server::FixedResponse srv(20_ms);
  const SimResult res = simulate(tasks, ds, srv, quick_config());
  EXPECT_EQ(res.metrics.per_task[0].deadline_misses, 0u);
  // setup 5ms + post 10ms per period.
  EXPECT_NEAR(res.metrics.cpu_utilization(), 0.15, 1e-9);
}

TEST(Simulator, EdfPreemptionOrdersByAbsoluteDeadline) {
  // Long task released at 0 (D = 400ms), short task every 100ms (D = 100ms):
  // the short task must preempt and never miss.
  const TaskSet tasks{
      make_simple_task("long", 400_ms, 200_ms, 1_ms, 200_ms),
      make_simple_task("short", 100_ms, 40_ms, 1_ms, 40_ms),
  };
  server::FixedResponse srv(10_ms);
  const SimResult res =
      simulate(tasks, core::all_local(2), srv, quick_config(Duration::seconds(2)));
  EXPECT_EQ(res.metrics.total_deadline_misses(), 0u);
  EXPECT_FALSE(res.trace.filter(TraceKind::kPreempt).empty());
}

TEST(Simulator, OverloadedLocalSetMissesDeadlines) {
  const TaskSet tasks{
      make_simple_task("a", 100_ms, 70_ms, 1_ms, 70_ms),
      make_simple_task("b", 100_ms, 70_ms, 1_ms, 70_ms),
  };
  server::FixedResponse srv(10_ms);
  const SimResult res = simulate(tasks, core::all_local(2), srv, quick_config());
  EXPECT_GT(res.metrics.total_deadline_misses(), 0u);
  // Missed jobs earn nothing.
  EXPECT_LT(res.metrics.total_benefit(), 20.0);
}

TEST(Simulator, NaiveDeadlinePolicyCanMissWhereSplitDoesNot) {
  // The paper's Section 5.1 claim: giving both phases the full deadline
  // ("naive EDF") performs poorly. Here an offloaded task competes with a
  // local task; under the naive policy EDF procrastinates the setup behind
  // the local job, which delays the offload send, the compensation timer,
  // and finally the compensation itself past the deadline. The split
  // assignment forces the setup out early and everything fits.
  const TaskSet tasks{
      offload_task("off", 200_ms, 50_ms, 10_ms, 100_ms, 1.0, 9.0),
      make_simple_task("loc", 110_ms, 60_ms, 1_ms, 60_ms),
  };
  const DecisionVector ds{Decision::offload(1, 100_ms), Decision::local()};
  server::NeverResponds srv;  // worst case: every job compensates
  SimConfig split_cfg = quick_config(Duration::seconds(4));
  split_cfg.deadline_policy = DeadlinePolicy::kSplit;
  SimConfig naive_cfg = split_cfg;
  naive_cfg.deadline_policy = DeadlinePolicy::kNaive;
  const auto split_res = simulate(tasks, ds, srv, split_cfg);
  const auto naive_res = simulate(tasks, ds, srv, naive_cfg);
  EXPECT_GT(naive_res.metrics.total_deadline_misses(), 0u);
  EXPECT_GE(naive_res.metrics.total_deadline_misses(),
            split_res.metrics.total_deadline_misses());
}

TEST(Simulator, SporadicReleasesAreSpacedAtLeastPeriod) {
  const TaskSet tasks{make_simple_task("a", 100_ms, 10_ms, 1_ms, 10_ms)};
  server::FixedResponse srv(10_ms);
  SimConfig cfg = quick_config(Duration::seconds(3));
  cfg.release_policy = ReleasePolicy::kSporadic;
  cfg.sporadic_slack = 0.5;
  const SimResult res = simulate(tasks, core::all_local(1), srv, cfg);
  const auto releases = res.trace.filter(TraceKind::kRelease);
  ASSERT_GE(releases.size(), 2u);
  for (std::size_t i = 1; i < releases.size(); ++i) {
    const Duration gap = releases[i].time - releases[i - 1].time;
    EXPECT_GE(gap, 100_ms);
    EXPECT_LE(gap, 150_ms + 1_ms);
  }
  // Fewer releases than strictly periodic.
  EXPECT_LT(res.metrics.per_task[0].released, 30u);
}

TEST(Simulator, UniformFractionExecutionShortensBusyTime) {
  const TaskSet tasks{make_simple_task("a", 100_ms, 40_ms, 1_ms, 40_ms)};
  server::FixedResponse srv(10_ms);
  SimConfig wcet_cfg = quick_config();
  SimConfig frac_cfg = quick_config();
  frac_cfg.exec_policy = ExecTimePolicy::kUniformFraction;
  frac_cfg.exec_min_fraction = 0.25;
  const auto wcet = simulate(tasks, core::all_local(1), srv, wcet_cfg);
  const auto frac = simulate(tasks, core::all_local(1), srv, frac_cfg);
  EXPECT_LT(frac.metrics.cpu_busy_ns, wcet.metrics.cpu_busy_ns);
  EXPECT_EQ(frac.metrics.total_deadline_misses(), 0u);
}

TEST(Simulator, ObservedResponseStatsRecorded) {
  const TaskSet tasks{offload_task("a", 100_ms, 30_ms, 5_ms, 50_ms, 1.0, 8.0)};
  const DecisionVector ds{Decision::offload(1, 50_ms)};
  server::FixedResponse srv(23_ms);
  const SimResult res = simulate(tasks, ds, srv, quick_config());
  const auto& stats = res.metrics.per_task[0].observed_response_ms;
  EXPECT_EQ(stats.count(), 10u);
  EXPECT_DOUBLE_EQ(stats.mean(), 23.0);
}

TEST(Simulator, RequestProfilePassedToServer) {
  // A stateful queueing server with nonzero compute: response grows with
  // the profiled compute time.
  const TaskSet tasks{offload_task("a", 100_ms, 30_ms, 5_ms, 90_ms, 1.0, 8.0)};
  const DecisionVector ds{Decision::offload(1, 90_ms)};
  server::GpuServerConfig gcfg;
  gcfg.background.arrivals_per_sec = 0.0;
  gcfg.network.jitter = 0.0;

  RequestProfile profile(1);
  profile[0].resize(2);
  profile[0][1].compute_time = 40_ms;

  server::QueueingGpuServer srv(gcfg, 1);
  const SimResult res = simulate(tasks, ds, srv, quick_config(), profile);
  const auto& stats = res.metrics.per_task[0].observed_response_ms;
  ASSERT_GT(stats.count(), 0u);
  EXPECT_GT(stats.mean(), 40.0);
  EXPECT_EQ(res.metrics.per_task[0].timely_results,
            res.metrics.per_task[0].offload_attempts);
}

TEST(Simulator, ValidationErrors) {
  const TaskSet tasks{offload_task("a", 100_ms, 30_ms, 5_ms, 50_ms, 1.0, 8.0)};
  server::FixedResponse srv(10_ms);
  EXPECT_THROW(simulate(tasks, {}, srv, quick_config()), std::invalid_argument);
  // R >= D is rejected up front.
  const DecisionVector bad{Decision::offload(1, 100_ms)};
  EXPECT_THROW(simulate(tasks, bad, srv, quick_config()), std::invalid_argument);
}

TEST(Simulator, MetricsSummaryMentionsCounters) {
  const TaskSet tasks{make_simple_task("a", 100_ms, 30_ms, 1_ms, 30_ms)};
  server::FixedResponse srv(10_ms);
  const SimResult res = simulate(tasks, core::all_local(1), srv, quick_config());
  const std::string s = res.metrics.summary();
  EXPECT_NE(s.find("released=10"), std::string::npos);
  EXPECT_NE(s.find("misses=0"), std::string::npos);
}

TEST(Trace, CapacityBoundsAndFilter) {
  Trace trace(3);
  EXPECT_TRUE(trace.enabled());
  for (int i = 0; i < 5; ++i) {
    trace.record(TimePoint(i), TraceKind::kRelease, 0, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(trace.events().size(), 3u);
  EXPECT_TRUE(trace.truncated());
  EXPECT_EQ(trace.filter(TraceKind::kRelease).size(), 3u);
  EXPECT_TRUE(trace.filter(TraceKind::kPreempt).empty());
  Trace off(0);
  off.record(TimePoint(1), TraceKind::kRelease, 0, 0);
  EXPECT_TRUE(off.events().empty());
  EXPECT_FALSE(off.enabled());
}

TEST(TraceEvent, ToStringIsReadable) {
  const TraceEvent ev{TimePoint(5'000'000), TraceKind::kTimerFired, 2, 7};
  const std::string s = ev.to_string();
  EXPECT_NE(s.find("timer-fired"), std::string::npos);
  EXPECT_NE(s.find("task=2"), std::string::npos);
}

}  // namespace
}  // namespace rt::sim
