// End-to-end property: whatever the (timing-unreliable) server does, the
// decisions produced by the Offloading Decision Manager never cause a
// deadline miss under the split-deadline EDF runtime. This is the paper's
// core guarantee (Theorem 3 + the compensation mechanism) validated through
// the whole stack: workload generator -> ODM/MCKP -> simulator -> metrics.

#include <gtest/gtest.h>

#include "core/odm.hpp"
#include "core/workload.hpp"
#include "server/gpu_server.hpp"
#include "sim/simulator.hpp"
#include "support/compare.hpp"

namespace rt {
namespace {

using namespace rt::literals;

struct GuaranteeCase {
  std::uint64_t seed;
  mckp::SolverKind solver;
  double estimation_error;
  server::Scenario scenario;
  sim::ReleasePolicy release;
  sim::ExecTimePolicy exec;
};

void PrintTo(const GuaranteeCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " solver=" << mckp::to_string(c.solver)
      << " err=" << c.estimation_error
      << " scenario=" << server::to_string(c.scenario)
      << (c.release == sim::ReleasePolicy::kPeriodic ? " periodic" : " sporadic")
      << (c.exec == sim::ExecTimePolicy::kAlwaysWcet ? " wcet" : " frac");
}

class GuaranteeTest : public ::testing::TestWithParam<GuaranteeCase> {};

TEST_P(GuaranteeTest, OdmDecisionsNeverMissDeadlines) {
  const GuaranteeCase& c = GetParam();
  Rng rng(c.seed);
  core::PaperSimConfig wl;
  wl.num_tasks = 15;  // keep each case fast; many cases below
  const core::TaskSet tasks = make_paper_simulation_taskset(rng, wl);

  core::OdmConfig odm_cfg;
  odm_cfg.solver = c.solver;
  odm_cfg.estimation_error = c.estimation_error;
  const core::OdmResult odm = core::decide_offloading(tasks, odm_cfg);
  ASSERT_TRUE(odm.feasible);

  auto srv = server::make_scenario_server(c.scenario, c.seed ^ 0xBEEF);
  sim::SimConfig sim_cfg;
  sim_cfg.horizon = Duration::seconds(10);
  sim_cfg.seed = c.seed * 7 + 1;
  sim_cfg.release_policy = c.release;
  sim_cfg.exec_policy = c.exec;
  sim_cfg.benefit_semantics = sim::BenefitSemantics::kTimelyCount;

  const sim::SimResult res = sim::simulate(tasks, odm.decisions, *srv, sim_cfg);
  EXPECT_TRUE(sim::no_misses(res.metrics));
  // Conservation: every completed job came through exactly one of the three
  // paths; triggers can outnumber completions by the jobs still in flight
  // when the horizon cuts.
  for (const auto& m : res.metrics.per_task) {
    EXPECT_GE(m.timely_results + m.compensations + m.local_runs, m.completed);
    EXPECT_LE(m.timely_results + m.compensations + m.local_runs, m.released);
  }
}

std::vector<GuaranteeCase> make_cases() {
  std::vector<GuaranteeCase> cases;
  const server::Scenario scenarios[] = {server::Scenario::kBusy,
                                        server::Scenario::kNotBusy,
                                        server::Scenario::kIdle};
  std::uint64_t seed = 1;
  for (const auto solver :
       {mckp::SolverKind::kDpProfits, mckp::SolverKind::kHeuOe}) {
    for (const double err : {-0.4, 0.0, 0.4}) {
      for (const auto scenario : scenarios) {
        GuaranteeCase c;
        c.seed = seed++;
        c.solver = solver;
        c.estimation_error = err;
        c.scenario = scenario;
        c.release = (seed % 2) ? sim::ReleasePolicy::kPeriodic
                               : sim::ReleasePolicy::kSporadic;
        c.exec = (seed % 3) ? sim::ExecTimePolicy::kAlwaysWcet
                            : sim::ExecTimePolicy::kUniformFraction;
        cases.push_back(c);
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, GuaranteeTest, ::testing::ValuesIn(make_cases()));

// A dead server is the adversarial extreme: nothing ever returns, every
// offloaded job must be saved by its compensation.
TEST(GuaranteeExtremes, DeadServerAllCompensationsNoMisses) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const core::TaskSet tasks = core::make_paper_simulation_taskset(rng);
    const core::OdmResult odm = core::decide_offloading(tasks);
    ASSERT_TRUE(odm.feasible);
    server::NeverResponds srv;
    sim::SimConfig cfg;
    cfg.horizon = Duration::seconds(5);
    const sim::SimResult res = sim::simulate(tasks, odm.decisions, srv, cfg);
    EXPECT_TRUE(sim::no_misses(res.metrics));
    EXPECT_EQ(res.metrics.total_timely_results(), 0u);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const auto& m = res.metrics.per_task[i];
      if (odm.decisions[i].offloaded()) {
        // Every completed job was saved by a compensation (a trigger may
        // still be in flight at the horizon).
        EXPECT_LE(m.completed, m.compensations);
        EXPECT_LE(m.compensations, m.released);
      }
    }
  }
}

// The greedy per-task baseline [8]-style decisions are NOT safe: find a
// seed where they overload the CPU and the simulator observes misses. This
// is the motivating contrast for the whole MCKP + Theorem 3 machinery.
TEST(GuaranteeExtremes, GreedyBaselineEventuallyMisses) {
  bool greedy_missed_somewhere = false;
  for (std::uint64_t seed = 1; seed <= 10 && !greedy_missed_somewhere; ++seed) {
    Rng rng(seed);
    core::PaperSimConfig wl;
    wl.num_tasks = 30;
    // Heavier tasks than the paper default to force contention.
    wl.wcet_max = 60_ms;
    wl.period_min = 300_ms;
    wl.period_max = 400_ms;
    const core::TaskSet tasks = make_paper_simulation_taskset(rng, wl);
    const core::DecisionVector greedy = core::greedy_local_choice(tasks);
    if (core::theorem3_feasible(tasks, greedy)) continue;
    server::NeverResponds srv;  // worst case for compensation load
    sim::SimConfig cfg;
    cfg.horizon = Duration::seconds(5);
    const sim::SimResult res = sim::simulate(tasks, greedy, srv, cfg);
    greedy_missed_somewhere |= res.metrics.total_deadline_misses() > 0;
  }
  EXPECT_TRUE(greedy_missed_somewhere);
}

}  // namespace
}  // namespace rt
