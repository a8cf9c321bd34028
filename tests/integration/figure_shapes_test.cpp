// Regression tests for the *shapes* of the paper's evaluation artifacts
// (fast versions of the bench harnesses; EXPERIMENTS.md quotes the full
// runs). If one of these fails, a bench output has silently changed
// character, not just magnitude.

#include <gtest/gtest.h>

#include "casestudy/case_study.hpp"
#include "core/odm.hpp"
#include "core/workload.hpp"
#include "img/quality.hpp"
#include "sim/benefit_response.hpp"
#include "sim/simulator.hpp"
#include "support/compare.hpp"

namespace rt {
namespace {

using namespace rt::literals;

// ---------------------------------------------------------------------------
// Table 1 shape: per task, PSNR benefits strictly rise with the level, the
// top level caps at 99 dB, response times strictly rise with the level.
// ---------------------------------------------------------------------------
TEST(Table1Shape, BenefitAndResponseMonotoneWithCap) {
  casestudy::CaseStudyConfig cfg;
  cfg.image_width = 400;  // small: keep the test fast
  cfg.image_height = 300;
  cfg.samples_per_level = 64;
  const casestudy::CaseStudy study = casestudy::build_case_study(cfg);
  ASSERT_EQ(study.tasks.size(), 4u);
  for (const auto& t : study.tasks) {
    const auto& g = t.task.benefit;
    ASSERT_GE(g.size(), 3u) << t.task.name;
    for (std::size_t j = 1; j < g.size(); ++j) {
      EXPECT_GT(g.point(j).value, g.point(j - 1).value) << t.task.name;
      if (j >= 2) {
        EXPECT_GT(g.point(j).response_time, g.point(j - 1).response_time);
      }
    }
    EXPECT_DOUBLE_EQ(g.max_value(), img::kPsnrCap) << t.task.name;
    // Deadlines per the paper: tau_1/2 at 1.8 s, tau_3/4 at 2 s.
  }
  EXPECT_EQ(study.tasks[0].task.deadline, Duration::from_ms(1800));
  EXPECT_EQ(study.tasks[2].task.deadline, 2_s);
  // Payloads grow with the level (they drive the response times).
  for (const auto& t : study.tasks) {
    for (std::size_t j = 2; j < t.payload_bytes.size(); ++j) {
      EXPECT_GT(t.payload_bytes[j], t.payload_bytes[j - 1]);
    }
  }
}

TEST(Table1Shape, DeterministicAcrossBuilds) {
  casestudy::CaseStudyConfig cfg;
  cfg.image_width = 320;
  cfg.image_height = 240;
  cfg.samples_per_level = 32;
  const casestudy::CaseStudy a = casestudy::build_case_study(cfg);
  const casestudy::CaseStudy b = casestudy::build_case_study(cfg);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].task.benefit, b.tasks[i].task.benefit);
    EXPECT_EQ(a.tasks[i].task.local_wcet, b.tasks[i].task.local_wcet);
  }
}

// ---------------------------------------------------------------------------
// Figure 2 shape (miniature): idle >= busy per work set, floor at 1.0, no
// deadline misses anywhere.
// ---------------------------------------------------------------------------
TEST(Figure2Shape, ScenarioOrderingAndFloor) {
  casestudy::CaseStudyConfig cs_cfg;
  cs_cfg.image_width = 400;
  cs_cfg.image_height = 300;
  cs_cfg.samples_per_level = 64;
  const casestudy::CaseStudy study = casestudy::build_case_study(cs_cfg);
  const sim::RequestProfile profile = study.request_profile();

  const auto perms = casestudy::weight_permutations();
  ASSERT_EQ(perms.size(), 24u);

  // A handful of work sets is enough for the shape.
  for (const std::size_t ws : {0u, 7u, 23u}) {
    core::TaskSet tasks = study.task_set();
    for (std::size_t i = 0; i < tasks.size(); ++i) tasks[i].weight = perms[ws][i];
    const core::OdmResult odm = core::decide_offloading(tasks);
    ASSERT_TRUE(odm.feasible);

    auto run = [&](server::ResponseModel& srv) {
      sim::SimConfig cfg;
      cfg.horizon = 10_s;
      const sim::SimResult res = sim::simulate(tasks, odm.decisions, srv, cfg, profile);
      EXPECT_TRUE(sim::no_misses(res.metrics));
      return res.metrics.total_benefit();
    };
    server::NeverResponds dead;
    const double worst = run(dead);
    auto busy = server::make_scenario_server(server::Scenario::kBusy, 1);
    auto idle = server::make_scenario_server(server::Scenario::kIdle, 1);
    const double busy_benefit = run(*busy);
    const double idle_benefit = run(*idle);
    EXPECT_GE(busy_benefit, worst * 0.999) << "compensation floor violated";
    EXPECT_GE(idle_benefit, busy_benefit) << "scenario ordering inverted";
    EXPECT_GT(idle_benefit, worst * 1.2) << "offloading should pay when idle";
  }
}

// ---------------------------------------------------------------------------
// Figure 3 shape (analytic, miniature): peak at x = 0; the edges degrade.
// ---------------------------------------------------------------------------
TEST(Figure3Shape, PeakAtPerfectEstimation) {
  Rng rng(20140601);
  // 30 tasks as in the paper: the capacity must bind, otherwise
  // over-estimation costs nothing and the peak flattens.
  const core::TaskSet tasks = core::make_paper_simulation_taskset(rng);

  auto analytic = [&](double x, mckp::SolverKind solver) {
    core::OdmConfig cfg;
    cfg.solver = solver;
    cfg.estimation_error = x;
    cfg.apply_task_weights = false;
    const core::OdmResult odm = core::decide_offloading(tasks, cfg);
    double total = 0.0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (odm.decisions[i].offloaded()) {
        total += tasks[i].benefit.value_at(odm.decisions[i].response_time);
      }
    }
    return total;
  };

  const double at_zero = analytic(0.0, mckp::SolverKind::kDpProfits);
  ASSERT_GT(at_zero, 0.0);
  for (const double x : {-0.4, -0.2, 0.2, 0.4}) {
    EXPECT_LE(analytic(x, mckp::SolverKind::kDpProfits), at_zero + 1e-9)
        << "x=" << x;
  }
  // The edges are strictly worse, not just equal.
  EXPECT_LT(analytic(-0.4, mckp::SolverKind::kDpProfits), at_zero * 0.95);
  EXPECT_LT(analytic(0.4, mckp::SolverKind::kDpProfits), at_zero);
  // At perfect estimation the DP dominates the heuristic.
  EXPECT_GE(at_zero, analytic(0.0, mckp::SolverKind::kHeuOe) - 1e-9);
}

// ---------------------------------------------------------------------------
// Figure 3 simulation consistency: the BenefitDrivenResponse server makes
// the simulated timely-count converge to the analytic expectation.
// ---------------------------------------------------------------------------
TEST(Figure3Shape, SimulationMatchesAnalyticExpectation) {
  Rng rng(7);
  core::PaperSimConfig wl;
  wl.num_tasks = 10;
  const core::TaskSet tasks = core::make_paper_simulation_taskset(rng, wl);
  const core::OdmResult odm = core::decide_offloading(tasks);
  ASSERT_TRUE(odm.feasible);

  double expectation = 0.0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (odm.decisions[i].offloaded()) {
      expectation += tasks[i].benefit.value_at(odm.decisions[i].response_time);
    }
  }
  ASSERT_GT(expectation, 0.0);

  std::vector<core::BenefitFunction> gs;
  for (const auto& t : tasks) gs.push_back(t.benefit);
  sim::BenefitDrivenResponse srv(std::move(gs));
  sim::SimConfig cfg;
  cfg.horizon = Duration::seconds(400);  // ~600 waves of T~650ms
  cfg.benefit_semantics = sim::BenefitSemantics::kTimelyCount;
  const sim::SimResult res = sim::simulate(tasks, odm.decisions, srv, cfg);
  EXPECT_TRUE(sim::no_misses(res.metrics));

  double per_wave = 0.0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& m = res.metrics.per_task[i];
    if (m.released) {
      per_wave += m.accrued_benefit / static_cast<double>(m.released);
    }
  }
  EXPECT_NEAR(per_wave, expectation, expectation * 0.1);
}

}  // namespace
}  // namespace rt
