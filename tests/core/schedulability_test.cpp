#include "core/schedulability.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/deadline.hpp"
#include "core/workload.hpp"
#include "util/rng.hpp"

namespace rt::core {
namespace {

using namespace rt::literals;

Task offloadable(std::string name, Duration period, Duration c, Duration c1,
                 Duration r) {
  Task t = make_simple_task(std::move(name), period, c, c1, c);
  t.benefit = BenefitFunction({{0_ms, 1.0}, {r, 2.0}});
  return t;
}

TEST(Density, LocalMatchesUtilization) {
  const Task t = make_simple_task("t", 100_ms, 25_ms, 2_ms, 25_ms);
  EXPECT_NEAR(local_density(t).to_double(), 0.25, 1e-15);
}

TEST(Density, OffloadTermMatchesTheorem1) {
  // (C1 + C2) / (D - R) = (5 + 20) / (100 - 50) = 0.5.
  const Task t = offloadable("t", 100_ms, 20_ms, 5_ms, 50_ms);
  EXPECT_NEAR(offload_density(t, 50_ms, 1).to_double(), 0.5, 1e-15);
}

TEST(Density, SaturatesWhenResponseTimeSwallowsDeadline) {
  const Task t = offloadable("t", 100_ms, 20_ms, 5_ms, 50_ms);
  EXPECT_TRUE(offload_density(t, 100_ms, 1).is_saturated());
  EXPECT_TRUE(offload_density(t, 150_ms, 1).is_saturated());
  EXPECT_THROW(offload_density(t, Duration(-1), 1), std::invalid_argument);
}

TEST(Density, DecisionDensityDispatches) {
  const Task t = offloadable("t", 100_ms, 20_ms, 5_ms, 50_ms);
  EXPECT_EQ(decision_density(t, Decision::local()), local_density(t));
  EXPECT_EQ(decision_density(t, Decision::offload(1, 50_ms)),
            offload_density(t, 50_ms, 1));
}

TEST(Theorem3, AcceptsExactBoundary) {
  // Two offloaded tasks each of density 1/2: total exactly 1 -> feasible.
  const Task a = offloadable("a", 100_ms, 20_ms, 5_ms, 50_ms);
  const Task b = offloadable("b", 200_ms, 45_ms, 5_ms, 100_ms);
  const DecisionVector ds{Decision::offload(1, 50_ms), Decision::offload(1, 100_ms)};
  EXPECT_NEAR(total_density({a, b}, ds).to_double(), 1.0, 1e-15);
  EXPECT_TRUE(theorem3_feasible({a, b}, ds));
}

TEST(Theorem3, RejectsJustOverOne) {
  const Task a = offloadable("a", 100_ms, 20_ms, 5_ms, 50_ms);
  Task b = offloadable("b", 200_ms, 45_ms, 5_ms, 100_ms);
  b.compensation_wcet += Duration(1);  // nudge the sum past 1 by 1e-8
  const DecisionVector ds{Decision::offload(1, 50_ms), Decision::offload(1, 100_ms)};
  EXPECT_FALSE(theorem3_feasible({a, b}, ds));
}

TEST(Theorem3, MixedPartitionMatchesPaperFormula) {
  const Task off = offloadable("off", 100_ms, 10_ms, 5_ms, 40_ms);
  const Task loc = make_simple_task("loc", 50_ms, 20_ms, 1_ms, 20_ms);
  const DecisionVector ds{Decision::offload(1, 40_ms), Decision::local()};
  // (5 + 10) / 60 + 20 / 50 = 0.25 + 0.4.
  EXPECT_NEAR(total_density({off, loc}, ds).to_double(), 0.65, 1e-12);
  EXPECT_TRUE(theorem3_feasible({off, loc}, ds));
}

TEST(Theorem3, ArityMismatchThrows) {
  const Task a = offloadable("a", 100_ms, 20_ms, 5_ms, 50_ms);
  EXPECT_THROW(total_density({a}, {}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Demand bound functions.
// ---------------------------------------------------------------------------

TEST(DbfExact, LocalTaskClassicSteps) {
  const Task t = make_simple_task("t", 100_ms, 30_ms, 1_ms, 30_ms);
  const Decision d = Decision::local();
  EXPECT_EQ(dbf_exact(t, d, 99_ms), 0);
  EXPECT_EQ(dbf_exact(t, d, 100_ms), (30_ms).ns());
  EXPECT_EQ(dbf_exact(t, d, 199_ms), (30_ms).ns());
  EXPECT_EQ(dbf_exact(t, d, 200_ms), (60_ms).ns());
  EXPECT_EQ(dbf_exact(t, d, 1000_ms), (300_ms).ns());
  EXPECT_THROW(dbf_exact(t, d, Duration(-1)), std::invalid_argument);
}

TEST(DbfExact, OffloadedTaskFirstStepsAtSplitDeadlines) {
  // T = D = 100, C1 = 10, C2 = 20, R = 40: D1 = 20, D2 = 40.
  const Task t = offloadable("t", 100_ms, 20_ms, 10_ms, 40_ms);
  const Decision d = Decision::offload(1, 40_ms);
  // Alignment B puts C1 at t=20; alignment A puts C2 at t=40.
  EXPECT_EQ(dbf_exact(t, d, 19_ms), 0);
  EXPECT_EQ(dbf_exact(t, d, 20_ms), (10_ms).ns());
  EXPECT_EQ(dbf_exact(t, d, 40_ms), (20_ms).ns());   // max(A: 20, B: 10)
  EXPECT_EQ(dbf_exact(t, d, 100_ms), (30_ms).ns());  // B: C1 + C2 in one period
}

TEST(DbfExact, NeverExceedsLinearBound) {
  // The substance of Theorems 1 and 2: the linear bound dominates the exact
  // dbf at every point, for both local and offloaded decisions.
  Rng rng(7);
  RandomTasksetConfig cfg;
  cfg.num_tasks = 6;
  cfg.total_local_utilization = 0.6;
  const TaskSet tasks = make_random_taskset(rng, cfg);
  for (const auto& task : tasks) {
    for (const Decision& d :
         {Decision::local(),
          Decision::offload(1, task.benefit.point(1).response_time),
          Decision::offload(task.benefit.size() - 1,
                            task.benefit.point(task.benefit.size() - 1)
                                .response_time)}) {
      for (int k = 1; k <= 300; ++k) {
        const Duration t = task.period.scaled(0.03 * k);
        // D1 is floored to an integer tick, so the implemented dbf may lead
        // the real-valued Theorem 1 bound by a few nanoseconds right at a
        // step point; anything beyond that is a genuine violation.
        EXPECT_LE(dbf_exact(task, d, t), dbf_linear_bound(task, d, t) + 4)
            << task.name << " at " << t.to_string();
      }
    }
  }
}

TEST(DbfExact, MonotoneNonDecreasing) {
  const Task t = offloadable("t", 97_ms, 17_ms, 5_ms, 31_ms);
  const Decision d = Decision::offload(1, 31_ms);
  std::int64_t prev = 0;
  for (int k = 0; k < 500; ++k) {
    const auto v = dbf_exact(t, d, Duration::milliseconds(k));
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(DbfLinearBound, MatchesDensityTimesT) {
  const Task t = offloadable("t", 100_ms, 20_ms, 5_ms, 50_ms);
  const Decision d = Decision::offload(1, 50_ms);
  // density 0.5: bound at 80ms is 40ms.
  EXPECT_EQ(dbf_linear_bound(t, d, 80_ms), (40_ms).ns());
}

// ---------------------------------------------------------------------------
// Processor-demand analysis.
// ---------------------------------------------------------------------------

TEST(Pda, AgreesWithTheorem3OnEasySets) {
  const Task off = offloadable("off", 100_ms, 10_ms, 5_ms, 40_ms);
  const Task loc = make_simple_task("loc", 50_ms, 20_ms, 1_ms, 20_ms);
  const DecisionVector ds{Decision::offload(1, 40_ms), Decision::local()};
  const PdaResult res = pda_feasible({off, loc}, ds);
  EXPECT_TRUE(res.feasible);
  EXPECT_FALSE(res.unbounded_utilization);
}

TEST(Pda, RejectsOverloadedLocalSet) {
  const Task a = make_simple_task("a", 10_ms, 6_ms, 1_ms, 6_ms);
  const Task b = make_simple_task("b", 10_ms, 6_ms, 1_ms, 6_ms);
  const PdaResult res = pda_feasible({a, b}, all_local(2));
  EXPECT_FALSE(res.feasible);
  EXPECT_TRUE(res.unbounded_utilization);
}

TEST(Pda, DetectsDeadlineViolationWithBoundedUtilization) {
  // Low asymptotic utilization but a crowded short window: two offloaded
  // tasks whose compensation windows collide.
  Task a = offloadable("a", 1000_ms, 100_ms, 50_ms, 800_ms);
  Task b = offloadable("b", 1000_ms, 100_ms, 50_ms, 800_ms);
  const DecisionVector ds{Decision::offload(1, 800_ms), Decision::offload(1, 800_ms)};
  // Theorem 3: 150/200 + 150/200 = 1.5 > 1 -> infeasible. Exact PDA must
  // also find the violation (demand 2*(50+100)=300ms in a 200ms window).
  EXPECT_FALSE(theorem3_feasible({a, b}, ds));
  const PdaResult res = pda_feasible({a, b}, ds);
  EXPECT_FALSE(res.feasible);
  EXPECT_FALSE(res.unbounded_utilization);
  EXPECT_GT(res.violation_at.ns(), 0);
}

TEST(Pda, AcceptsSetsTheLinearBoundRejects) {
  // The pessimism gap (ablation B's premise): a set just over the Theorem 3
  // bound can still pass exact processor-demand analysis.
  const Task off = offloadable("off", 100_ms, 30_ms, 10_ms, 30_ms);
  const Task loc = make_simple_task("loc", 100_ms, 45_ms, 1_ms, 45_ms);
  const DecisionVector ds{Decision::offload(1, 30_ms), Decision::local()};
  // Theorem 3 density: 40/70 + 45/100 = 1.021... > 1: rejected.
  const double density = total_density({off, loc}, ds).to_double();
  EXPECT_GT(density, 1.0);
  EXPECT_FALSE(theorem3_feasible({off, loc}, ds));
  // Exact demand: the offloaded task's true asymptotic rate is only
  // (C1+C2)/T = 0.4, and no early window overflows.
  const PdaResult res = pda_feasible({off, loc}, ds);
  EXPECT_TRUE(res.feasible) << "exact analysis should absorb the bound's slack";
}

TEST(Pda, RandomSetsNeverContradictTheorem3Soundness) {
  // Theorem 3 feasible => PDA feasible (the exact test dominates the
  // sufficient one). 40 random sets.
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    RandomTasksetConfig cfg;
    cfg.num_tasks = 5;
    cfg.total_local_utilization = rng.uniform(0.2, 0.9);
    cfg.period_min = 50_ms;
    cfg.period_max = 500_ms;
    const TaskSet tasks = make_random_taskset(rng, cfg);
    DecisionVector ds;
    for (const auto& task : tasks) {
      const std::size_t level =
          static_cast<std::size_t>(rng.uniform_int(0, 2));
      if (level == 0) {
        ds.push_back(Decision::local());
      } else {
        ds.push_back(
            Decision::offload(level, task.benefit.point(level).response_time));
      }
    }
    if (theorem3_feasible(tasks, ds)) {
      EXPECT_TRUE(pda_feasible(tasks, ds).feasible) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace rt::core
