// Cross-validation of the analysis stack against the discrete-event engine.
//
// The exact processor-demand analysis models the worst release pattern of
// the split sub-jobs; any concrete simulated pattern is therefore covered:
//   PDA feasible  =>  zero misses in simulation (any server behaviour).
// The contrapositive doubles as a bug detector in both directions: a miss
// in simulation on a PDA-feasible set indicts either the dbf derivation or
// the engine.

#include <gtest/gtest.h>

#include "core/schedulability.hpp"
#include "core/workload.hpp"
#include "server/response_model.hpp"
#include "sim/simulator.hpp"
#include "support/compare.hpp"

namespace rt {
namespace {

using namespace rt::literals;

class AnalysisEngineTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnalysisEngineTest, PdaFeasibleImpliesNoSimulatedMisses) {
  Rng rng(GetParam());
  int covered = 0;
  for (int trial = 0; trial < 25; ++trial) {
    core::RandomTasksetConfig cfg;
    cfg.num_tasks = 5;
    // Straddle the boundary: many draws land just past Theorem 3 but
    // inside the exact region, which is where the engine gets stressed.
    cfg.total_local_utilization = rng.uniform(0.5, 0.95);
    cfg.period_min = 20_ms;
    cfg.period_max = 300_ms;
    const core::TaskSet tasks = core::make_random_taskset(rng, cfg);
    core::DecisionVector ds;
    for (const auto& task : tasks) {
      const auto level = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(task.benefit.size()) - 1));
      if (level == 0) {
        ds.push_back(core::Decision::local());
      } else {
        ds.push_back(
            core::Decision::offload(level, task.benefit.point(level).response_time));
      }
    }
    if (!core::pda_feasible(tasks, ds).feasible) continue;
    ++covered;

    // Adversarial server behaviours: never answers (every second phase is a
    // full compensation at the latest possible release) and answers exactly
    // at the timer boundary.
    server::NeverResponds dead;
    sim::SimConfig sim_cfg;
    sim_cfg.horizon = Duration::seconds(5);
    EXPECT_TRUE(sim::no_misses(sim::simulate(tasks, ds, dead, sim_cfg).metrics))
        << "dead server, trial " << trial;

    // Boundary server: response == R for every offloaded task is impossible
    // with one shared model, so use the per-task maximum (any response <= R
    // is timely; == R is the tightest timely case for the post path).
    Duration max_r = Duration::zero();
    for (const auto& d : ds) {
      if (d.offloaded()) max_r = std::max(max_r, d.response_time);
    }
    if (max_r.is_positive()) {
      server::FixedResponse boundary(max_r);
      EXPECT_TRUE(
          sim::no_misses(sim::simulate(tasks, ds, boundary, sim_cfg).metrics))
          << "boundary server, trial " << trial;
    }
  }
  EXPECT_GT(covered, 3) << "sweep did not produce PDA-feasible sets";
}

// Theorem 3-feasible sets are a subset of PDA-feasible sets, so the same
// holds.
TEST_P(AnalysisEngineTest, TestHierarchyIsConsistent) {
  Rng rng(GetParam() ^ 0x5EEDull);
  for (int trial = 0; trial < 25; ++trial) {
    core::RandomTasksetConfig cfg;
    cfg.num_tasks = 4;
    cfg.total_local_utilization = rng.uniform(0.3, 1.1);
    const core::TaskSet tasks = core::make_random_taskset(rng, cfg);
    core::DecisionVector ds;
    for (const auto& task : tasks) {
      const auto level = static_cast<std::size_t>(rng.uniform_int(0, 2));
      if (level == 0 || level >= task.benefit.size()) {
        ds.push_back(core::Decision::local());
      } else {
        ds.push_back(
            core::Decision::offload(level, task.benefit.point(level).response_time));
      }
    }
    const bool t3 = core::theorem3_feasible(tasks, ds);
    const bool pda = core::pda_feasible(tasks, ds).feasible;
    if (t3) {
      EXPECT_TRUE(pda) << "Theorem 3 accepted what PDA rejects";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisEngineTest,
                         ::testing::Values(101u, 202u, 303u, 404u));

}  // namespace
}  // namespace rt
