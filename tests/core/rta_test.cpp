#include "core/rta.hpp"

#include <gtest/gtest.h>

#include "core/schedulability.hpp"
#include "core/workload.hpp"
#include "sim/simulator.hpp"
#include "server/response_model.hpp"
#include "util/rng.hpp"
#include "support/compare.hpp"

namespace rt::core {
namespace {

using namespace rt::literals;

Task offloadable(std::string name, Duration period, Duration c, Duration c1,
                 Duration r) {
  Task t = make_simple_task(std::move(name), period, c, c1, c);
  t.benefit = BenefitFunction({{0_ms, 1.0}, {r, 2.0}});
  return t;
}

TEST(DeadlineMonotonicOrder, SortsByDeadlineStable) {
  TaskSet tasks{
      make_simple_task("slow", 100_ms, 10_ms, 1_ms, 10_ms),
      make_simple_task("fast", 20_ms, 5_ms, 1_ms, 5_ms),
      make_simple_task("mid-a", 50_ms, 5_ms, 1_ms, 5_ms),
      make_simple_task("mid-b", 50_ms, 5_ms, 1_ms, 5_ms),
  };
  const auto order = deadline_monotonic_order(tasks);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);  // stable: mid-a before mid-b
  EXPECT_EQ(order[2], 3u);
  EXPECT_EQ(order[3], 0u);
}

TEST(Rta, SingleLocalTaskResponseIsWcet) {
  const TaskSet tasks{make_simple_task("a", 100_ms, 30_ms, 1_ms, 30_ms)};
  const RtaResult res = rta_fixed_priority(tasks, all_local(1));
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.per_task[0].response, 30_ms);
}

TEST(Rta, ClassicTwoTaskInterference) {
  // hp: C=2, T=10; lp: C=5, T=20. Fixed point: R = 5 + ceil(R/10)*2 = 7.
  const TaskSet tasks{
      make_simple_task("lp", 20_ms, 5_ms, 1_ms, 5_ms),
      make_simple_task("hp", 10_ms, 2_ms, 1_ms, 2_ms),
  };
  const RtaResult res = rta_fixed_priority(tasks, all_local(2));
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.per_task[1].response, 2_ms);
  EXPECT_EQ(res.per_task[0].response, 7_ms);
}

TEST(Rta, OffloadedTaskChargesFullSuspension) {
  // One offloaded task alone: response = C1 + C2 + R.
  const TaskSet tasks{offloadable("a", 100_ms, 20_ms, 5_ms, 40_ms)};
  const DecisionVector ds{Decision::offload(1, 40_ms)};
  const RtaResult res = rta_fixed_priority(tasks, ds);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.per_task[0].response, 5_ms + 20_ms + 40_ms);
}

TEST(Rta, InfeasibleWhenSuspensionEatsDeadline) {
  const TaskSet tasks{offloadable("a", 100_ms, 40_ms, 30_ms, 40_ms)};
  const DecisionVector ds{Decision::offload(1, 40_ms)};
  // 30 + 40 + 40 = 110 > 100.
  const RtaResult res = rta_fixed_priority(tasks, ds);
  EXPECT_FALSE(res.feasible);
  EXPECT_FALSE(res.per_task[0].feasible);
}

TEST(Rta, DivergentInterferenceReportsInfeasible) {
  const TaskSet tasks{
      make_simple_task("lp", 100_ms, 60_ms, 1_ms, 60_ms),
      make_simple_task("hp", 10_ms, 6_ms, 1_ms, 6_ms),
  };
  const RtaResult res = rta_fixed_priority(tasks, all_local(2));
  EXPECT_TRUE(res.per_task[1].feasible);
  EXPECT_FALSE(res.per_task[0].feasible);
  EXPECT_FALSE(res.feasible);
}

TEST(Rta, JitterOfOffloadedInterferersCounts) {
  // The lp task sees the offloaded hp task as jitter-R: with R = 35ms and
  // T_hp = 50ms, two hp jobs can land inside a 40ms window.
  const TaskSet tasks{
      make_simple_task("lp", 200_ms, 30_ms, 1_ms, 30_ms),
      offloadable("hp", 50_ms, 5_ms, 3_ms, 35_ms),
  };
  const DecisionVector ds{Decision::local(), Decision::offload(1, 35_ms)};
  const RtaResult res = rta_fixed_priority(tasks, ds);
  ASSERT_TRUE(res.per_task[0].converged);
  // Without jitter: 30 + ceil(R/50)*8 -> 38+8=46. With jitter 35:
  // 30 + ceil((R+35)/50)*8 -> fixed point 46: ceil(81/50)=2 -> 46;
  // check it is at least the jitter-aware value.
  EXPECT_GE(res.per_task[0].response, 46_ms);
}

TEST(Rta, ArityMismatchThrows) {
  const TaskSet tasks{make_simple_task("a", 100_ms, 30_ms, 1_ms, 30_ms)};
  EXPECT_THROW(rta_fixed_priority(tasks, {}), std::invalid_argument);
}

// Property: RTA-feasible decisions never miss under the FP simulator, even
// against a dead server (full compensations).
TEST(Rta, FeasibleSetsNeverMissUnderFpSimulation) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    RandomTasksetConfig cfg;
    cfg.num_tasks = 6;
    cfg.total_local_utilization = 0.4;
    const TaskSet tasks = make_random_taskset(rng, cfg);
    DecisionVector ds;
    for (const auto& task : tasks) {
      if (rng.bernoulli(0.5)) {
        ds.push_back(Decision::local());
      } else {
        ds.push_back(Decision::offload(1, task.benefit.point(1).response_time));
      }
    }
    const RtaResult rta = rta_fixed_priority(tasks, ds);
    if (!rta.feasible) continue;
    server::NeverResponds dead;
    sim::SimConfig sim_cfg;
    sim_cfg.horizon = Duration::seconds(5);
    sim_cfg.scheduler_policy = sim::SchedulerPolicy::kFixedPriorityDm;
    const sim::SimResult res = sim::simulate(tasks, ds, dead, sim_cfg);
    EXPECT_TRUE(sim::no_misses(res.metrics)) << "seed " << seed;
  }
}

// The paper's premise: the EDF split-deadline test admits decision vectors
// the suspension-oblivious FP analysis cannot certify.
TEST(Rta, Theorem3AdmitsWhatRtaRejects) {
  // Two offloaded tasks with large suspensions: Theorem 3 density is mild,
  // but RTA charges R in full.
  const TaskSet tasks{
      offloadable("a", 100_ms, 10_ms, 5_ms, 70_ms),
      offloadable("b", 100_ms, 10_ms, 5_ms, 70_ms),
  };
  const DecisionVector ds{Decision::offload(1, 70_ms), Decision::offload(1, 70_ms)};
  EXPECT_TRUE(theorem3_feasible(tasks, ds));  // 15/30 + 15/30 = 1
  EXPECT_FALSE(rta_fixed_priority(tasks, ds).feasible);  // 5+10+70+... > 100
}

}  // namespace
}  // namespace rt::core
