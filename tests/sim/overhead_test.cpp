// Context-switch overhead modeling: each dispatch switch charges the
// incoming sub-job; the analysis covers it by WCET inflation.

#include <gtest/gtest.h>

#include <cmath>

#include "core/odm.hpp"
#include "core/schedulability.hpp"
#include "core/workload.hpp"
#include "server/response_model.hpp"
#include "sim/simulator.hpp"
#include "support/compare.hpp"

namespace rt::sim {
namespace {

using namespace rt::literals;
using core::make_simple_task;

TEST(Overhead, ZeroOverheadUnchanged) {
  const core::TaskSet tasks{make_simple_task("a", 100_ms, 30_ms, 1_ms, 30_ms)};
  server::FixedResponse srv(10_ms);
  SimConfig cfg;
  cfg.horizon = 1_s;
  const SimResult res = simulate(tasks, core::all_local(1), srv, cfg);
  EXPECT_EQ(res.metrics.cpu_busy_ns, (300_ms).ns());
  EXPECT_EQ(res.metrics.context_switches, 10u);  // one dispatch per job
}

TEST(Overhead, InflatesBusyTimePerSwitch) {
  const core::TaskSet tasks{make_simple_task("a", 100_ms, 30_ms, 1_ms, 30_ms)};
  server::FixedResponse srv(10_ms);
  SimConfig cfg;
  cfg.horizon = 1_s;
  cfg.context_switch_overhead = 2_ms;
  const SimResult res = simulate(tasks, core::all_local(1), srv, cfg);
  // 10 jobs, one switch each: busy = 10 * (30 + 2) ms.
  EXPECT_EQ(res.metrics.context_switches, 10u);
  EXPECT_EQ(res.metrics.cpu_busy_ns, (320_ms).ns());
  EXPECT_EQ(res.metrics.total_deadline_misses(), 0u);
}

TEST(Overhead, TightSetMissesWithOverheadButNotWithout) {
  // Exactly full utilization: any nonzero switch cost must overflow.
  const core::TaskSet tasks{
      make_simple_task("a", 100_ms, 50_ms, 1_ms, 50_ms),
      make_simple_task("b", 100_ms, 50_ms, 1_ms, 50_ms),
  };
  server::FixedResponse srv(10_ms);
  SimConfig clean;
  clean.horizon = 2_s;
  const SimResult ok = simulate(tasks, core::all_local(2), srv, clean);
  EXPECT_EQ(ok.metrics.total_deadline_misses(), 0u);

  SimConfig costly = clean;
  costly.context_switch_overhead = 1_ms;
  const SimResult bad = simulate(tasks, core::all_local(2), srv, costly);
  EXPECT_GT(bad.metrics.total_deadline_misses(), 0u);
}

TEST(Overhead, WcetInflationRestoresTheGuarantee) {
  // The classical fix: charge every WCET with 2x the switch cost, re-run
  // the ODM on the inflated set, simulate the *original* behaviour plus
  // overhead -- no misses.
  Rng rng(17);
  core::PaperSimConfig wl;
  wl.num_tasks = 10;
  core::TaskSet tasks = core::make_paper_simulation_taskset(rng, wl);
  const Duration overhead = Duration::microseconds(200);

  core::TaskSet inflated = tasks;
  for (auto& t : inflated) {
    t.local_wcet += overhead * 2;
    t.setup_wcet += overhead * 2;
    t.compensation_wcet += overhead * 2;
  }
  const core::OdmResult odm = core::decide_offloading(inflated);
  ASSERT_TRUE(odm.feasible);

  server::ShiftedLognormalResponse srv(10_ms, std::log(60.0), 0.8, 0.1);
  SimConfig cfg;
  cfg.horizon = 20_s;
  cfg.context_switch_overhead = overhead;
  // Simulate the REAL task set (original WCETs) with the decisions made on
  // the inflated one.
  const SimResult res = simulate(tasks, odm.decisions, srv, cfg);
  EXPECT_TRUE(no_misses(res.metrics));
  EXPECT_GT(res.metrics.context_switches, 0u);
}

}  // namespace
}  // namespace rt::sim
