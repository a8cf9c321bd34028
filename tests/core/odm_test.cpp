#include "core/odm.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/workload.hpp"
#include "support/brute_force.hpp"
#include "util/rng.hpp"

namespace rt::core {
namespace {

using namespace rt::literals;

Task vision_task(std::string name, Duration period, Duration local, Duration setup,
                 std::vector<BenefitPoint> points, double weight = 1.0) {
  Task t = make_simple_task(std::move(name), period, local, setup, local);
  t.benefit = BenefitFunction(std::move(points));
  t.weight = weight;
  return t;
}

TaskSet two_task_set() {
  return {
      vision_task("a", 100_ms, 40_ms, 4_ms,
                  {{0_ms, 1.0}, {20_ms, 5.0}, {60_ms, 9.0}}),
      vision_task("b", 200_ms, 80_ms, 8_ms,
                  {{0_ms, 2.0}, {50_ms, 6.0}, {120_ms, 12.0}}),
  };
}

TEST(BuildOdmInstance, OneClassPerTaskLocalFirst) {
  const TaskSet tasks = two_task_set();
  const OdmInstance odm = build_odm_instance(tasks, {});
  ASSERT_EQ(odm.instance.classes.size(), 2u);
  EXPECT_EQ(odm.instance.capacity, UtilFp::one().raw());
  // Level 0 item is the local choice with weight C/T.
  EXPECT_EQ(odm.instance.classes[0][0].weight, local_density(tasks[0]).raw());
  EXPECT_DOUBLE_EQ(odm.instance.classes[0][0].profit, 1.0);
  EXPECT_EQ(odm.level_of[0][0], 0u);
  // Offload items carry Theorem 1 weights.
  EXPECT_EQ(odm.instance.classes[0][1].weight,
            offload_density(tasks[0], 20_ms, 1).raw());
}

TEST(BuildOdmInstance, PrunesImpossibleLevels) {
  // A benefit point beyond the deadline can never be chosen.
  TaskSet tasks{vision_task("a", 100_ms, 40_ms, 4_ms,
                            {{0_ms, 1.0}, {50_ms, 5.0}, {150_ms, 99.0}})};
  const OdmInstance odm = build_odm_instance(tasks, {});
  ASSERT_EQ(odm.instance.classes[0].size(), 2u);  // local + the 50ms level
  EXPECT_EQ(odm.level_of[0].back(), 1u);
}

TEST(BuildOdmInstance, AppliesTaskWeights) {
  TaskSet tasks = two_task_set();
  tasks[0].weight = 3.0;
  OdmConfig cfg;
  cfg.apply_task_weights = true;
  const OdmInstance weighted = build_odm_instance(tasks, cfg);
  EXPECT_DOUBLE_EQ(weighted.instance.classes[0][0].profit, 3.0);
  cfg.apply_task_weights = false;
  const OdmInstance plain = build_odm_instance(tasks, cfg);
  EXPECT_DOUBLE_EQ(plain.instance.classes[0][0].profit, 1.0);
}

TEST(BuildOdmInstance, EstimationErrorScalesResponseTimes) {
  const TaskSet tasks = two_task_set();
  OdmConfig cfg;
  cfg.estimation_error = 0.4;
  const OdmInstance odm = build_odm_instance(tasks, cfg);
  EXPECT_EQ(odm.estimated_benefit[0].point(1).response_time, 28_ms);
  EXPECT_THROW(
      build_odm_instance(tasks, {.estimation_error = -1.0}),
      std::invalid_argument);
}

TEST(DecideOffloading, PrefersOffloadingWhenItPays) {
  // One task, plenty of slack: the best offload level must win over local.
  // Level 2 weight: (4 + 40) / (100 - 50) = 0.88 <= 1.
  TaskSet tasks{vision_task("a", 100_ms, 40_ms, 4_ms,
                            {{0_ms, 1.0}, {20_ms, 5.0}, {50_ms, 9.0}})};
  const OdmResult res = decide_offloading(tasks);
  ASSERT_EQ(res.decisions.size(), 1u);
  EXPECT_TRUE(res.decisions[0].offloaded());
  EXPECT_EQ(res.decisions[0].level, 2u);
  EXPECT_EQ(res.decisions[0].response_time, 50_ms);
  EXPECT_DOUBLE_EQ(res.claimed_objective, 9.0);
  EXPECT_TRUE(res.feasible);
  EXPECT_LE(res.claimed_objective, res.lp_bound + 1e-9);
}

TEST(DecideOffloading, RespectsTheorem3Capacity) {
  // Crowded set: offloading everything at the top level is infeasible, so
  // the DP must mix levels / locals, and the result must pass Theorem 3.
  Rng rng(5);
  const TaskSet tasks = make_paper_simulation_taskset(rng);
  const OdmResult res = decide_offloading(tasks);
  EXPECT_TRUE(res.feasible);
  EXPECT_TRUE(theorem3_feasible(tasks, res.decisions));
  EXPECT_LE(res.density, 1.0 + 1e-12);
  // With probabilities as benefits, something must be offloadable.
  EXPECT_GT(res.claimed_objective, 0.0);
}

TEST(DecideOffloading, SolversAgreeDpAtLeastHeuristic) {
  Rng rng(6);
  const TaskSet tasks = make_paper_simulation_taskset(rng);
  OdmConfig dp_cfg;
  dp_cfg.solver = mckp::SolverKind::kDpProfits;
  OdmConfig heu_cfg;
  heu_cfg.solver = mckp::SolverKind::kHeuOe;
  const OdmResult dp = decide_offloading(tasks, dp_cfg);
  const OdmResult heu = decide_offloading(tasks, heu_cfg);
  EXPECT_TRUE(dp.feasible);
  EXPECT_TRUE(heu.feasible);
  EXPECT_GE(dp.claimed_objective, heu.claimed_objective - 1e-6);
  EXPECT_LE(dp.claimed_objective, dp.lp_bound + 1e-6);
}

TEST(DecideOffloading, OverloadedSetDegradesToAllLocalVerdict) {
  // Even all-local exceeds capacity: the ODM reports infeasible and returns
  // local decisions (there is nothing better to do).
  TaskSet tasks{
      vision_task("a", 10_ms, 8_ms, 1_ms, {{0_ms, 1.0}}),
      vision_task("b", 10_ms, 8_ms, 1_ms, {{0_ms, 1.0}}),
  };
  const OdmResult res = decide_offloading(tasks);
  EXPECT_FALSE(res.feasible);
  for (const auto& d : res.decisions) EXPECT_FALSE(d.offloaded());
}

TEST(DecideOffloading, LpBoundIsTheInstanceBoundForEverySolver) {
  // decide_offloading takes the bound from the solve instead of computing
  // it again; it must stay lp_upper_bound's value, bit for bit, and -inf
  // when even the cheapest picks overflow.
  Rng rng(8);
  RandomTasksetConfig small;
  small.num_tasks = 5;
  small.benefit_points = 4;
  const TaskSet overloaded{
      vision_task("a", 10_ms, 8_ms, 1_ms, {{0_ms, 1.0}, {2_ms, 3.0}}),
      vision_task("b", 10_ms, 8_ms, 1_ms, {{0_ms, 1.0}}),
  };
  const std::vector<TaskSet> sets{two_task_set(), make_random_taskset(rng, small),
                                  make_paper_simulation_taskset(rng), overloaded};
  for (const auto kind : {mckp::SolverKind::kDpProfits, mckp::SolverKind::kHeuOe}) {
    for (std::size_t s = 0; s < sets.size(); ++s) {
      for (const double x : {0.0, 0.3}) {
        OdmConfig cfg;
        cfg.solver = kind;
        cfg.estimation_error = x;
        const OdmResult res = decide_offloading(sets[s], cfg);
        const mckp::Instance inst = build_odm_instance(sets[s], cfg).instance;
        EXPECT_EQ(res.lp_bound, mckp::lp_upper_bound(inst))
            << mckp::to_string(kind) << " set " << s << " x=" << x;
        // Brute force enumerates every selection: small sets only. The
        // bound is above the exact optimum.
        if (sets[s].size() > 5) continue;
        const mckp::Selection exact = mckp::solve_brute_force(inst);
        if (exact.feasible) {
          EXPECT_LE(exact.profit, res.lp_bound + 1e-9)
              << mckp::to_string(kind) << " set " << s << " x=" << x;
        }
      }
    }
    OdmConfig cfg;
    cfg.solver = kind;
    EXPECT_EQ(decide_offloading(overloaded, cfg).lp_bound,
              -std::numeric_limits<double>::infinity())
        << mckp::to_string(kind);
  }
}

TEST(DecideOffloading, EmptyTaskSet) {
  const OdmResult res = decide_offloading({});
  EXPECT_TRUE(res.feasible);
  EXPECT_TRUE(res.decisions.empty());
  EXPECT_DOUBLE_EQ(res.claimed_objective, 0.0);
}

TEST(DecideOffloading, EstimationErrorChangesChoices) {
  Rng rng(7);
  const TaskSet tasks = make_paper_simulation_taskset(rng);
  OdmConfig perfect;
  OdmConfig over;
  over.estimation_error = 0.4;  // response times look 40% longer
  const OdmResult p = decide_offloading(tasks, perfect);
  const OdmResult o = decide_offloading(tasks, over);
  // Over-estimation inflates every offload weight, so the feasible set of
  // the erroneous problem nests inside the perfect one: the claimed optimum
  // can only drop.
  EXPECT_LE(o.claimed_objective, p.claimed_objective + 1e-9);
  EXPECT_GT(o.claimed_objective, 0.0);
}

TEST(GreedyLocalChoice, PicksHighestFittingLevelIgnoringCapacity) {
  TaskSet tasks{
      vision_task("a", 100_ms, 40_ms, 4_ms,
                  {{0_ms, 1.0}, {20_ms, 5.0}, {90_ms, 9.0}}),
  };
  const DecisionVector ds = greedy_local_choice(tasks);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_TRUE(ds[0].offloaded());
  // Level 2 (r=90ms) leaves only 10ms < C1+C2=44ms: must fall to level 1.
  EXPECT_EQ(ds[0].level, 1u);
}

TEST(GreedyLocalChoice, CanViolateTheorem3) {
  // The point of the baseline: per-task greed ignores the shared CPU.
  TaskSet tasks;
  for (int i = 0; i < 4; ++i) {
    // Offload weight (10 + 20) / (100 - 50) = 0.6 each; four of them blow
    // the capacity, while all-local (4 * 0.2) fits comfortably.
    // Appended: GCC 12 warns a false -Wrestrict on an inlined
    // `"t" + std::to_string(i)`.
    tasks.push_back(vision_task(std::string("t").append(std::to_string(i)), 100_ms,
                                20_ms, 10_ms, {{0_ms, 0.5}, {50_ms, 10.0}}));
  }
  const DecisionVector greedy = greedy_local_choice(tasks);
  for (const auto& d : greedy) EXPECT_TRUE(d.offloaded());
  EXPECT_FALSE(theorem3_feasible(tasks, greedy));
  // The ODM on the same set stays feasible.
  EXPECT_TRUE(decide_offloading(tasks).feasible);
}

}  // namespace
}  // namespace rt::core
