// Zero-allocation engine internals (sim::SimEngine, docs/ANALYSIS.md §9):
// bounded slot pools, eager in-flight cleanup, an event heap that holds
// only offloads, and the reset/reuse contract BatchRunner relies on, kept
// release schedule included.

#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/odm.hpp"
#include "core/task.hpp"
#include "core/workload.hpp"
#include "server/gpu_server.hpp"
#include "server/response_model.hpp"
#include "support/compare.hpp"
#include "support/reference_engine.hpp"

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

// Regression for the seed engine's deferred in-flight cleanup: resolved
// entries used to linger in the token map until the compensation timer
// fired. An offload leaves the event heap when it resolves, so the live
// in-flight population is bounded by *outstanding* offloads -- with split
// deadlines and no misses that is at most one per offloaded task, never a
// function of the horizon.
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
  EXPECT_GT(res.metrics.total_released(), 1000u)
      << "horizon too short to be meaningful";
  // No misses + constrained deadlines => at most one live sub-job per task
  // (plus the one being created); the pool must not scale with the horizon.
  EXPECT_LE(st.pool_slots_peak, 2 * s.tasks.size());
  EXPECT_EQ(st.pool_slots_capacity, st.pool_slots_peak)
      << "free-list pool should never allocate past the concurrency peak";
}

// A reused engine keeps the release schedule of its last periodic run and
// replays it while the periods and horizon match. Every run below, cached
// schedule or not, must equal a fresh engine's run of the same inputs: a
// second task set, the horizon 1 ns either side (task 0 releases at
// exactly H, so a schedule kept for H lacks a release that H + 1 ns has),
// a sporadic run between two periodic ones with the same periods, and one
// period 1 ns either side.
TEST(EngineInternals, ReusedEngineReproducesItsFirstRunBitForBit) {
  const Fixture s = make_setup(5);
  const Fixture other = make_setup(6, 8);
  const Duration horizon = s.tasks[0].period * 40;

  struct Step {
    const Fixture* set;
    core::TaskSet tasks;
    SimConfig cfg;
  };
  std::vector<Step> steps;
  const auto add = [&](const Fixture& set, const auto& edit) {
    Step st{&set, set.tasks, SimConfig{}};
    st.cfg.horizon = horizon;
    st.cfg.seed = 77 + steps.size();
    st.cfg.exec_policy = ExecTimePolicy::kUniformFraction;
    st.cfg.trace_capacity = 100'000;
    edit(st);
    steps.push_back(std::move(st));
  };
  const auto none = [](Step&) {};
  add(s, none);
  add(s, [](Step& st) { st.cfg.seed = 77; });  // the first run again
  add(other, none);
  add(s, [](Step& st) { st.cfg.horizon = st.cfg.horizon - 1_ns; });
  add(s, [](Step& st) { st.cfg.horizon = st.cfg.horizon + 1_ns; });
  add(s, none);
  add(s, [](Step& st) { st.cfg.release_policy = ReleasePolicy::kSporadic; });
  add(s, [](Step& st) { st.cfg.exec_policy = ExecTimePolicy::kAlwaysWcet; });
  add(s, [](Step& st) { st.tasks[3].period = st.tasks[3].period + 1_ns; });
  add(s, [](Step& st) {
    core::Task& t = st.tasks[3];
    t.period = t.period - 1_ns;
    t.deadline = std::min(t.deadline, t.period);
  });
  add(s, [](Step& st) { st.cfg.seed = 77; });

  SimEngine reused;
  std::vector<SimResult> results;
  for (std::size_t k = 0; k < steps.size(); ++k) {
    SCOPED_TRACE("step " + std::to_string(k));
    const Step& st = steps[k];
    auto srv = server::make_scenario_server(server::Scenario::kBusy, 3);
    results.push_back(reused.run(st.tasks, st.set->decisions, *srv, st.cfg));
    SimEngine fresh;
    auto srv_fresh = server::make_scenario_server(server::Scenario::kBusy, 3);
    const SimResult want = fresh.run(st.tasks, st.set->decisions, *srv_fresh, st.cfg);
    EXPECT_TRUE(metrics_equal(want.metrics, results.back().metrics));
    ASSERT_FALSE(want.trace.truncated());
    EXPECT_TRUE(traces_equal(want.trace, results.back().trace));
    EXPECT_EQ(fresh.stats().events_processed, reused.stats().events_processed);
  }
  // The edits change what runs: a stale schedule would show.
  EXPECT_TRUE(metrics_equal(results[0].metrics, results[1].metrics));
  EXPECT_TRUE(metrics_equal(results[0].metrics, results.back().metrics));
  EXPECT_NE(results[3].metrics.per_task[0].released,
            results[4].metrics.per_task[0].released);
  EXPECT_FALSE(traces_equal(results[5].trace, results[8].trace));
  EXPECT_FALSE(traces_equal(results[8].trace, results[9].trace));
}

// A long job preempted every couple of milliseconds supersedes its armed
// slice end at each preemption. The armed slice end lives in a register
// and the releases come from the schedule, so the heap holds one arrival
// or timer per in-flight offload and nothing else: none here, where every
// task runs locally (in_flight_peak is the heap's peak population).
TEST(EngineInternals, EventHeapHoldsOnlyOffloadsInFlight) {
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
  EXPECT_EQ(st.in_flight_peak, 0u);

  // The register must not change behaviour.
  server::FixedResponse srv_ref(1_ms);
  const SimResult ref = simulate_reference(tasks, core::all_local(2), srv_ref, cfg);
  EXPECT_TRUE(metrics_equal(ref.metrics, opt.metrics));
  ASSERT_FALSE(ref.trace.truncated());
  EXPECT_TRUE(traces_equal(ref.trace, opt.trace));
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
  ASSERT_FALSE(ref.trace.truncated());
  EXPECT_TRUE(traces_equal(ref.trace, opt.trace));

  std::vector<TraceKind> at_100ms;
  for (const TraceEvent& ev : opt.trace.events()) {
    if (ev.time == TimePoint::zero() + 100_ms) at_100ms.push_back(ev.kind);
  }
  const std::vector<TraceKind> expected{TraceKind::kJobComplete,
                                        TraceKind::kDispatch,
                                        TraceKind::kRelease};
  EXPECT_EQ(at_100ms, expected);
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
