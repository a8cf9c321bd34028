// Edge cases across module boundaries: degenerate-but-legal inputs that a
// downstream user will eventually feed the library.

#include <gtest/gtest.h>

#include "core/odm.hpp"
#include "core/schedulability.hpp"
#include "img/quality.hpp"
#include "img/scale.hpp"
#include "img/vision.hpp"
#include "mckp/solvers.hpp"
#include "server/response_model.hpp"
#include "sim/simulator.hpp"

namespace rt {
namespace {

using namespace rt::literals;
using core::make_simple_task;

// --- Single-task / single-choice extremes ---------------------------------

TEST(EdgeCases, SingleLocalOnlyTaskPipeline) {
  // No offload points at all: the whole pipeline must degrade gracefully.
  core::TaskSet tasks{make_simple_task("only", 50_ms, 10_ms, 1_ms, 10_ms)};
  const core::OdmResult odm = core::decide_offloading(tasks);
  ASSERT_TRUE(odm.feasible);
  EXPECT_FALSE(odm.decisions[0].offloaded());
  server::NeverResponds srv;
  sim::SimConfig cfg;
  cfg.horizon = 1_s;
  cfg.abort_on_deadline_miss = true;
  const sim::SimResult res = sim::simulate(tasks, odm.decisions, srv, cfg);
  EXPECT_EQ(res.metrics.per_task[0].completed, 20u);
}

TEST(EdgeCases, TaskFillingTheWholeCpu) {
  // C == D == T: schedulable exactly, and the simulator agrees.
  core::TaskSet tasks{make_simple_task("full", 50_ms, 50_ms, 1_ms, 50_ms)};
  EXPECT_TRUE(core::theorem3_feasible(tasks, core::all_local(1)));
  server::FixedResponse srv(1_ms);
  sim::SimConfig cfg;
  cfg.horizon = 1_s;
  cfg.abort_on_deadline_miss = true;
  const sim::SimResult res = sim::simulate(tasks, core::all_local(1), srv, cfg);
  EXPECT_EQ(res.metrics.total_deadline_misses(), 0u);
  // 19 jobs complete inside the half-open horizon [0, 1s); the 20th is
  // mid-execution when the window closes. It holds the CPU up to the
  // horizon and is charged for it, so the CPU is busy the whole window.
  EXPECT_EQ(res.metrics.total_completed(), 19u);
  EXPECT_NEAR(res.metrics.cpu_utilization(), 1.0, 1e-9);
}

TEST(EdgeCases, OffloadWithZeroSetupTime) {
  // C1 == 0 is legal (the request costs nothing locally): D1 becomes 0 and
  // the setup sub-job completes instantly at release.
  core::Task t = make_simple_task("zero-setup", 100_ms, 30_ms, 0_ms, 30_ms);
  t.benefit = core::BenefitFunction({{0_ms, 1.0}, {40_ms, 5.0}});
  const core::DecisionVector ds{core::Decision::offload(1, 40_ms)};
  EXPECT_TRUE(core::theorem3_feasible({t}, ds));
  server::FixedResponse srv(10_ms);
  sim::SimConfig cfg;
  cfg.horizon = 1_s;
  cfg.abort_on_deadline_miss = true;
  const sim::SimResult res = sim::simulate({t}, ds, srv, cfg);
  EXPECT_EQ(res.metrics.per_task[0].timely_results, 10u);
}

TEST(EdgeCases, ResponseBudgetOfOneTick) {
  // R = 1 ns: essentially no wait; almost every result is "late".
  core::Task t = make_simple_task("impatient", 100_ms, 30_ms, 2_ms, 30_ms);
  t.benefit = core::BenefitFunction({{0_ms, 1.0}, {Duration(1), 5.0}});
  const core::DecisionVector ds{core::Decision::offload(1, Duration(1))};
  server::FixedResponse srv(10_ms);
  sim::SimConfig cfg;
  cfg.horizon = 1_s;
  cfg.abort_on_deadline_miss = true;
  const sim::SimResult res = sim::simulate({t}, ds, srv, cfg);
  EXPECT_EQ(res.metrics.per_task[0].timely_results, 0u);
  EXPECT_EQ(res.metrics.per_task[0].compensations, 10u);
  EXPECT_EQ(res.metrics.total_deadline_misses(), 0u);
}

TEST(EdgeCases, ConstrainedDeadlinePipeline) {
  // D < T throughout: analysis, split, and runtime must all use D.
  core::Task t = make_simple_task("constrained", 100_ms, 20_ms, 2_ms, 20_ms);
  t.deadline = 60_ms;
  t.benefit = core::BenefitFunction({{0_ms, 1.0}, {30_ms, 6.0}});
  const core::OdmResult odm = core::decide_offloading({t});
  ASSERT_TRUE(odm.feasible);
  ASSERT_TRUE(odm.decisions[0].offloaded());
  // Weight used D - R = 30ms, not T - R.
  EXPECT_NEAR(core::offload_density(t, 30_ms, 1).to_double(), 22.0 / 30.0, 1e-12);
  server::NeverResponds srv;
  sim::SimConfig cfg;
  cfg.horizon = 2_s;
  cfg.abort_on_deadline_miss = true;
  EXPECT_EQ(sim::simulate({t}, odm.decisions, srv, cfg)
                .metrics.total_deadline_misses(),
            0u);
}

// --- MCKP degenerate instances ---------------------------------------------

TEST(EdgeCases, MckpSingleItemClasses) {
  // No choice anywhere: all solvers must agree on the forced selection.
  mckp::Instance inst;
  inst.capacity = 100;
  inst.classes = {{{30, 1.0}}, {{40, 2.0}}, {{20, 3.0}}};
  for (const auto kind :
       {mckp::SolverKind::kDpProfits, mckp::SolverKind::kDpWeights,
        mckp::SolverKind::kHeuOe, mckp::SolverKind::kBruteForce}) {
    const mckp::Selection sel = mckp::solve(inst, kind, 100.0);
    EXPECT_TRUE(sel.feasible) << mckp::to_string(kind);
    EXPECT_DOUBLE_EQ(sel.profit, 6.0) << mckp::to_string(kind);
    EXPECT_EQ(sel.weight, 90) << mckp::to_string(kind);
  }
}

TEST(EdgeCases, MckpAllZeroProfits) {
  mckp::Instance inst;
  inst.capacity = 10;
  inst.classes = {{{1, 0.0}, {2, 0.0}}, {{3, 0.0}}};
  const mckp::Selection sel = mckp::solve_dp_profits(inst);
  EXPECT_TRUE(sel.feasible);
  EXPECT_DOUBLE_EQ(sel.profit, 0.0);
}

TEST(EdgeCases, MckpIdenticalItems) {
  // Duplicates must not confuse dominance or reconstruction.
  mckp::Instance inst;
  inst.capacity = 10;
  inst.classes = {{{5, 2.0}, {5, 2.0}, {5, 2.0}}};
  for (const auto kind : {mckp::SolverKind::kDpProfits, mckp::SolverKind::kHeuOe}) {
    const mckp::Selection sel = mckp::solve(inst, kind, 10.0);
    EXPECT_TRUE(sel.feasible);
    EXPECT_DOUBLE_EQ(sel.profit, 2.0);
  }
}

// --- Image substrate minima --------------------------------------------------

TEST(EdgeCases, OnePixelImageOperations) {
  img::Image px(1, 1, 0.5f);
  EXPECT_EQ(img::resize(px, 3, 3).width(), 3);
  EXPECT_FLOAT_EQ(img::resize(px, 3, 3).at(1, 1), 0.5f);
  EXPECT_EQ(img::gaussian_blur5(px).at(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(img::sobel_magnitude(px).at(0, 0), 0.0f);
  EXPECT_DOUBLE_EQ(img::psnr(px, px), img::kPsnrCap);
}

TEST(EdgeCases, TemplateEqualsScene) {
  const img::Image scene = img::make_scene(16, 16, {.seed = 1});
  const img::MatchResult res = img::match_template(scene, scene);
  EXPECT_EQ(res.x, 0);
  EXPECT_EQ(res.y, 0);
  EXPECT_NEAR(res.score, 1.0, 1e-9);
}

}  // namespace
}  // namespace rt
