// Zero-allocation engine internals (sim::SimEngine, docs/ANALYSIS.md §9):
// bounded slot pools, eager in-flight cleanup, an event heap free of slice
// ends, and the reset/reuse contract BatchRunner relies on.

#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include "core/odm.hpp"
#include "core/task.hpp"
#include "core/workload.hpp"
#include "obs/sink.hpp"
#include "server/gpu_server.hpp"
#include "server/response_model.hpp"
#include "sim/reference_engine.hpp"

namespace rt::sim {
namespace {

using namespace rt::literals;
using core::make_simple_task;

struct Fixture {
  core::TaskSet tasks;
  core::DecisionVector decisions;
};

Fixture make_setup(std::uint64_t seed, std::size_t num_tasks = 12) {
  Rng rng(seed);
  core::PaperSimConfig wl;
  wl.num_tasks = num_tasks;
  Fixture s;
  s.tasks = core::make_paper_simulation_taskset(rng, wl);
  s.decisions = core::decide_offloading(s.tasks).decisions;
  return s;
}

bool metrics_equal(const SimMetrics& a, const SimMetrics& b) {
  if (a.per_task.size() != b.per_task.size()) return false;
  if (a.cpu_busy_ns != b.cpu_busy_ns) return false;
  if (a.context_switches != b.context_switches) return false;
  for (std::size_t i = 0; i < a.per_task.size(); ++i) {
    const auto& x = a.per_task[i];
    const auto& y = b.per_task[i];
    if (x.released != y.released || x.completed != y.completed ||
        x.deadline_misses != y.deadline_misses ||
        x.timely_results != y.timely_results ||
        x.compensations != y.compensations ||
        x.late_results != y.late_results ||
        x.accrued_benefit != y.accrued_benefit) {
      return false;
    }
  }
  return true;
}

void expect_same_trace(const Trace& ref, const Trace& opt) {
  ASSERT_FALSE(ref.truncated());
  ASSERT_EQ(ref.events().size(), opt.events().size());
  for (std::size_t i = 0; i < ref.events().size(); ++i) {
    const TraceEvent& a = ref.events()[i];
    const TraceEvent& b = opt.events()[i];
    EXPECT_EQ(a.time.ns(), b.time.ns()) << "trace event " << i;
    EXPECT_EQ(a.kind, b.kind) << "trace event " << i;
    EXPECT_EQ(a.task, b.task) << "trace event " << i;
    EXPECT_EQ(a.job, b.job) << "trace event " << i;
  }
}

// Regression for the seed engine's deferred in-flight cleanup: resolved
// entries used to linger in the token map until the compensation timer
// fired. The slot map erases eagerly, so the live in-flight population is
// bounded by *outstanding* offloads -- with split deadlines and no misses
// that is at most one per offloaded task, never a function of the horizon.
TEST(EngineInternals, InFlightPopulationBoundedByOutstandingOffloads) {
  const Fixture s = make_setup(7);
  std::size_t offloaded = 0;
  for (const auto& d : s.decisions) offloaded += d.offloaded() ? 1u : 0u;
  ASSERT_GT(offloaded, 0u);

  auto srv = server::make_scenario_server(server::Scenario::kNotBusy, 3);
  SimConfig cfg;
  cfg.horizon = 60_s;
  SimEngine engine;
  const SimResult res = engine.run(s.tasks, s.decisions, *srv, cfg);
  ASSERT_EQ(res.metrics.total_deadline_misses(), 0u);

  const EngineStats& st = engine.stats();
  std::uint64_t attempts = 0;
  for (const auto& tm : res.metrics.per_task) attempts += tm.offload_attempts;
  ASSERT_GT(attempts, offloaded);  // many waves, so the bound is non-trivial
  EXPECT_LE(st.in_flight_peak, offloaded);
}

TEST(EngineInternals, PoolPeakTracksConcurrentJobsNotTotalReleases) {
  const Fixture s = make_setup(13);
  auto srv = server::make_scenario_server(server::Scenario::kNotBusy, 3);
  SimConfig cfg;
  cfg.horizon = 60_s;
  SimEngine engine;
  const SimResult res = engine.run(s.tasks, s.decisions, *srv, cfg);
  ASSERT_EQ(res.metrics.total_deadline_misses(), 0u);

  const EngineStats& st = engine.stats();
  EXPECT_GT(st.jobs_released, 1000u) << "horizon too short to be meaningful";
  // No misses + constrained deadlines => at most one live sub-job per task
  // (plus the one being created); the pool must not scale with the horizon.
  EXPECT_LE(st.pool_slots_peak, 2 * s.tasks.size());
  EXPECT_EQ(st.pool_slots_capacity, st.pool_slots_peak)
      << "free-list pool should never allocate past the concurrency peak";
}

TEST(EngineInternals, ReusedEngineReproducesItsFirstRunBitForBit) {
  const Fixture s = make_setup(5);
  SimConfig cfg;
  cfg.horizon = 20_s;
  cfg.seed = 77;
  cfg.exec_policy = ExecTimePolicy::kUniformFraction;
  cfg.release_policy = ReleasePolicy::kSporadic;
  cfg.trace_capacity = 10'000;

  SimEngine engine;
  auto srv_a = server::make_scenario_server(server::Scenario::kNotBusy, 3);
  const SimResult first = engine.run(s.tasks, s.decisions, *srv_a, cfg);

  // Interleave a run with different seed/config to dirty every buffer.
  SimConfig other = cfg;
  other.seed = 123;
  other.release_policy = ReleasePolicy::kPeriodic;
  auto srv_b = server::make_scenario_server(server::Scenario::kBusy, 2);
  (void)engine.run(s.tasks, s.decisions, *srv_b, other);

  auto srv_c = server::make_scenario_server(server::Scenario::kNotBusy, 3);
  const SimResult again = engine.run(s.tasks, s.decisions, *srv_c, cfg);
  EXPECT_TRUE(metrics_equal(first.metrics, again.metrics));
  ASSERT_EQ(first.trace.events().size(), again.trace.events().size());
  for (std::size_t i = 0; i < first.trace.events().size(); ++i) {
    EXPECT_EQ(first.trace.events()[i].time.ns(), again.trace.events()[i].time.ns());
    EXPECT_EQ(first.trace.events()[i].kind, again.trace.events()[i].kind);
  }
}

// A long job preempted every couple of milliseconds supersedes its armed
// slice end at each preemption. The armed slice end lives beside the heap,
// so the heap holds one release per task plus one arrival or timer per
// in-flight offload, never a superseded slice end.
TEST(EngineInternals, EventHeapHoldsOnlyReleasesAndReplies) {
  const core::TaskSet tasks{
      make_simple_task("short", 2_ms, 1_ms, 1_ms, 1_ms),
      make_simple_task("long", 1000_ms, 400_ms, 1_ms, 1_ms),
  };
  server::FixedResponse srv(1_ms);
  SimConfig cfg;
  cfg.horizon = 4_s;
  cfg.trace_capacity = 50'000;

  SimEngine engine;
  const SimResult opt = engine.run(tasks, core::all_local(2), srv, cfg);
  const EngineStats& st = engine.stats();
  EXPECT_GT(opt.metrics.context_switches, 1000u) << "not preemption-heavy";
  EXPECT_LE(st.event_heap_peak, tasks.size() + st.in_flight_peak);

  // The register must not change behaviour.
  server::FixedResponse srv_ref(1_ms);
  const SimResult ref = simulate_reference(tasks, core::all_local(2), srv_ref, cfg);
  EXPECT_TRUE(metrics_equal(ref.metrics, opt.metrics));
  expect_same_trace(ref.trace, opt.trace);
}

// The armed slice end keeps the seq it was armed with. "long" (key 100 ms)
// is re-armed at 84 ms, when short's job of 80 ms completes, then keeps
// the CPU through short's release at 90 ms (an equal key, a later seq) and
// completes at 100 ms, the instant of short's next release, pushed at
// 90 ms. The slice end was armed first, so it pops first: long completes
// and short's 90 ms job is dispatched before the 100 ms release is
// recorded. (The set is overloaded: short's 90 ms job cannot finish by
// its deadline.)
TEST(EngineInternals, SliceEndArmedBeforeAReleaseOnItsInstantPopsFirst) {
  core::TaskSet tasks{
      make_simple_task("short", 10_ms, 4_ms, 1_ms, 4_ms),
      make_simple_task("long", 200_ms, 64_ms, 1_ms, 64_ms),
  };
  tasks[1].deadline = 100_ms;  // long's next release stays off 100 ms
  server::FixedResponse srv(1_ms);
  SimConfig cfg;
  cfg.horizon = 101_ms;
  cfg.trace_capacity = 1'000;

  SimEngine engine;
  const SimResult opt = engine.run(tasks, core::all_local(2), srv, cfg);
  const SimResult ref = simulate_reference(tasks, core::all_local(2), srv, cfg);
  EXPECT_TRUE(metrics_equal(ref.metrics, opt.metrics));
  expect_same_trace(ref.trace, opt.trace);

  std::vector<TraceKind> at_100ms;
  for (const TraceEvent& ev : opt.trace.events()) {
    if (ev.time == TimePoint::zero() + 100_ms) at_100ms.push_back(ev.kind);
  }
  const std::vector<TraceKind> expected{TraceKind::kJobComplete,
                                        TraceKind::kDispatch,
                                        TraceKind::kRelease};
  EXPECT_EQ(at_100ms, expected);
}

TEST(EngineInternals, StatsReachTheSinkAsMetrics) {
  const Fixture s = make_setup(3);
  auto srv = server::make_scenario_server(server::Scenario::kNotBusy, 3);
  obs::Sink sink;
  SimConfig cfg;
  cfg.horizon = 5_s;
  cfg.sink = &sink;
  SimEngine engine;
  (void)engine.run(s.tasks, s.decisions, *srv, cfg);

  const auto* pool_peak = sink.registry().find_histogram("sim.pool_slots_peak");
  ASSERT_NE(pool_peak, nullptr);
  EXPECT_EQ(pool_peak->count(), 1u);
  EXPECT_EQ(pool_peak->max(),
            static_cast<std::int64_t>(engine.stats().pool_slots_peak));
  ASSERT_NE(sink.registry().find_histogram("sim.in_flight_peak"), nullptr);
}

TEST(TraceBuffer, ResetRearmsCapacityAndClearsTruncation) {
  Trace trace(2);
  trace.record(TimePoint(1), TraceKind::kRelease, 0, 0);
  trace.record(TimePoint(2), TraceKind::kRelease, 0, 1);
  trace.record(TimePoint(3), TraceKind::kRelease, 0, 2);  // over capacity
  EXPECT_TRUE(trace.truncated());
  EXPECT_EQ(trace.events().size(), 2u);

  trace.reset(3);
  EXPECT_FALSE(trace.truncated());
  EXPECT_TRUE(trace.events().empty());
  EXPECT_TRUE(trace.enabled());
  trace.record(TimePoint(4), TraceKind::kDispatch, 1, 3);
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.events()[0].kind, TraceKind::kDispatch);

  trace.reset(0);
  EXPECT_FALSE(trace.enabled());
  trace.record(TimePoint(5), TraceKind::kDispatch, 1, 4);
  EXPECT_TRUE(trace.events().empty());
  EXPECT_FALSE(trace.truncated());
}

}  // namespace
}  // namespace rt::sim
