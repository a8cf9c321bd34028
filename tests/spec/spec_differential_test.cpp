// Spec-driven construction is bit-identical to inline construction.
//
// The acceptance bar for the declarative layer: a nested composed stack
// (faults(routing(bursty(lognormal))) plus an adaptive controller) built
// from one JSON document must produce the exact SimMetrics and ODM results
// of hand-written C++ over a fixed seed grid; likewise a sweep grid run
// through plan_batch() vs an inline ScenarioSpec vector, and the Figure 3
// document vs the inline spec vector the paper's sweep is defined by.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/odm.hpp"
#include "core/workload.hpp"
#include "exp/batch.hpp"
#include "rt/health.hpp"
#include "server/bursty.hpp"
#include "server/faults.hpp"
#include "server/response_model.hpp"
#include "server/routing.hpp"
#include "sim/benefit_response.hpp"
#include "sim/simulator.hpp"
#include "spec/grid.hpp"
#include "spec/scenario_doc.hpp"
#include "support/compare.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

using namespace rt;

namespace {

// The composed stack under test: faults(routing(bursty(lognormal), bounded))
// with a pessimistic-odm controller. Must stay in sync with the inline
// construction in ComposedStackTest below.
constexpr std::string_view kComposedDoc = R"json({
  "workload": {"type": "random", "seed": 7, "num_tasks": 4},
  "server": {
    "type": "fault-injector",
    "script": {
      "seed": 9001,
      "clauses": [{"kind": "outage", "start_ms": 1500, "end_ms": 3000}]
    },
    "inner": {
      "type": "routing",
      "route_of_stream": [0, 1, 0, 1],
      "routes": [
        {
          "type": "bursty",
          "seed": 3,
          "mean_calm_ms": 4000,
          "mean_burst_ms": 800,
          "calm": {"type": "shifted-lognormal", "mu_log_ms": 2.7,
                   "sigma_log": 0.4},
          "burst": {"type": "shifted-lognormal", "shift_ms": 150,
                    "mu_log_ms": 6.0, "sigma_log": 0.9,
                    "drop_probability": 0.15}
        },
        {
          "type": "bounded",
          "bound_ms": 400,
          "inner": {"type": "shifted-lognormal", "shift_ms": 2,
                    "mu_log_ms": 3.1, "sigma_log": 0.5,
                    "drop_probability": 0.05}
        }
      ]
    }
  },
  "controller": {"type": "pessimistic-odm", "estimation_error": 1.0},
  "sim": {"horizon_ms": 6000}
})json";

std::unique_ptr<server::ResponseModel> inline_lognormal(double shift_ms,
                                                        double mu, double sigma,
                                                        double drop) {
  return std::make_unique<server::ShiftedLognormalResponse>(
      Duration::from_ms(shift_ms), mu, sigma, drop);
}

std::unique_ptr<server::ResponseModel> inline_composed_server() {
  server::BurstyConfig bursty;
  bursty.mean_calm_duration = Duration::from_ms(4000);
  bursty.mean_burst_duration = Duration::from_ms(800);
  bursty.calm = inline_lognormal(0, 2.7, 0.4, 0);
  bursty.burst = inline_lognormal(150, 6.0, 0.9, 0.15);

  std::vector<std::unique_ptr<server::ResponseModel>> routes;
  routes.push_back(
      std::make_unique<server::BurstyResponse>(std::move(bursty), 3));
  routes.push_back(std::make_unique<server::BoundedResponse>(
      inline_lognormal(2, 3.1, 0.5, 0.05), Duration::from_ms(400)));
  auto routing = std::make_unique<server::RoutingResponse>(
      std::move(routes), std::vector<std::size_t>{0, 1, 0, 1});

  server::FaultScript script;
  script.seed = 9001;
  server::FaultClause outage;
  outage.kind = server::FaultKind::kOutage;
  outage.start = TimePoint::zero() + Duration::from_ms(1500);
  outage.end = TimePoint::zero() + Duration::from_ms(3000);
  script.clauses = {outage};
  script.validate();
  return std::make_unique<server::FaultInjector>(std::move(routing),
                                                 std::move(script));
}

TEST(SpecDifferential, ComposedStackWithControllerIsBitIdentical) {
  const spec::ScenarioDoc doc = spec::ScenarioDoc::parse_text(kComposedDoc);

  // Inline reference: the same workload, ODM, stack, and controller.
  core::RandomTasksetConfig wcfg;
  wcfg.num_tasks = 4;
  Rng rng(7);
  const core::TaskSet tasks = core::make_random_taskset(rng, wcfg);
  const core::OdmConfig odm;  // document uses all defaults
  const core::OdmResult inline_odm = core::decide_offloading(tasks, odm);

  core::OdmConfig pessimistic = odm;
  pessimistic.estimation_error = 1.0;
  health::ModeControllerConfig controller_cfg;  // default health section
  controller_cfg.degraded =
      core::decide_offloading(tasks, pessimistic).decisions;

  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));

    // Spec-driven run.
    const spec::BuiltScenario built = spec::build_scenario(
        spec::with_override(doc, "sim.seed", Json(static_cast<double>(seed))));
    const core::OdmResult spec_odm =
        core::decide_offloading(built.tasks, built.odm);
    health::ModeController spec_controller(*built.controller);
    sim::SimConfig spec_sim = built.sim;
    spec_sim.controller = &spec_controller;
    const sim::SimResult spec_res = sim::simulate(
        built.tasks, spec_odm.decisions, *built.server, spec_sim, built.profile);

    // Inline run.
    health::ModeController inline_controller(controller_cfg);
    sim::SimConfig inline_sim;
    inline_sim.horizon = Duration::from_ms(6000);
    inline_sim.seed = seed;
    inline_sim.controller = &inline_controller;
    const std::unique_ptr<server::ResponseModel> inline_server =
        inline_composed_server();
    const sim::SimResult inline_res = sim::simulate(
        tasks, inline_odm.decisions, *inline_server, inline_sim, {});

    EXPECT_TRUE(core::decisions_equal(spec_odm.decisions, inline_odm.decisions));
    EXPECT_EQ(spec_odm.claimed_objective, inline_odm.claimed_objective);
    EXPECT_TRUE(
        core::decisions_equal(built.controller->degraded, controller_cfg.degraded));
    EXPECT_TRUE(sim::metrics_equal(spec_res.metrics, inline_res.metrics));
  }
}

TEST(SpecDifferential, BatchPlanMatchesInlineSpecVector) {
  const spec::ScenarioDoc doc = spec::ScenarioDoc::parse_text(R"json({
    "workload": {"type": "random", "seed": 11, "num_tasks": 5},
    "server": {"type": "shifted-lognormal", "mu_log_ms": 3.0,
               "sigma_log": 0.5},
    "sim": {"horizon_ms": 4000},
    "sweep": {
      "jobs": 2,
      "base_seed": 5,
      "axes": [
        {"path": "odm.estimation_error", "values": [0.0, 0.25]},
        {"path": "sim.horizon_ms", "values": [3000, 4500]}
      ]
    }
  })json");

  const spec::BatchPlan plan = spec::plan_batch(doc);
  ASSERT_EQ(plan.specs.size(), 4u);
  EXPECT_EQ(plan.batch.jobs, 2u);
  EXPECT_EQ(plan.batch.base_seed, 5u);
  exp::BatchRunner spec_runner(plan.batch);
  const std::vector<exp::ScenarioOutcome> spec_out =
      spec_runner.run(plan.specs);

  // Inline reference: the same grid, row major (estimation_error outer).
  core::RandomTasksetConfig wcfg;
  wcfg.num_tasks = 5;
  Rng rng(11);
  const core::TaskSet tasks = core::make_random_taskset(rng, wcfg);
  const auto server = std::shared_ptr<const server::ResponseModel>(
      inline_lognormal(0, 3.0, 0.5, 0));
  std::vector<exp::ScenarioSpec> inline_specs;
  for (const double error : {0.0, 0.25}) {
    for (const double horizon_ms : {3000.0, 4500.0}) {
      exp::ScenarioSpec s;
      s.tasks = tasks;
      s.odm.estimation_error = error;
      s.server = server;
      s.sim.horizon = Duration::from_ms(horizon_ms);
      inline_specs.push_back(std::move(s));
    }
  }
  exp::BatchConfig batch;
  batch.jobs = 2;
  batch.base_seed = 5;
  exp::BatchRunner inline_runner(batch);
  const std::vector<exp::ScenarioOutcome> inline_out =
      inline_runner.run(inline_specs);

  ASSERT_EQ(spec_out.size(), inline_out.size());
  for (std::size_t i = 0; i < spec_out.size(); ++i) {
    SCOPED_TRACE("scenario " + std::to_string(i));
    EXPECT_TRUE(
        core::decisions_equal(spec_out[i].decisions, inline_out[i].decisions));
    EXPECT_EQ(spec_out[i].odm.claimed_objective,
              inline_out[i].odm.claimed_objective);
    EXPECT_TRUE(sim::metrics_equal(spec_out[i].metrics, inline_out[i].metrics));
  }
}

TEST(SpecDifferential, Fig3DocMatchesInlineSweepConfig) {
  const spec::ScenarioDoc doc = spec::ScenarioDoc::parse_text(R"json({
    "workload": {"type": "paper", "seed": 123, "num_tasks": 8},
    "odm": {"apply_task_weights": false},
    "server": {"type": "benefit-driven"},
    "sim": {"benefit_semantics": "timely-count", "horizon_ms": 4000},
    "sweep": {
      "jobs": 2,
      "axes": [
        {"path": "odm.estimation_error", "values": [-0.2, 0.0, 0.2]},
        {"path": "odm.solver", "values": ["dp-profits", "heu-oe"]}
      ]
    }
  })json");
  const spec::BatchPlan plan = spec::plan_batch(doc);
  ASSERT_EQ(plan.specs.size(), 6u);
  const std::vector<exp::ScenarioOutcome> spec_out =
      exp::BatchRunner(plan.batch).run(plan.specs);

  // Inline reference, built the way the paper's sweep is defined: one task
  // set, one shared benefit-driven prototype (the true response
  // distribution is the benefit function itself), unweighted ODM,
  // timely-count semantics, errors outer and solvers inner.
  core::PaperSimConfig wl;
  wl.num_tasks = 8;
  Rng rng(123);
  const core::TaskSet tasks = core::make_paper_simulation_taskset(rng, wl);
  std::vector<core::BenefitFunction> gs;
  for (const core::Task& t : tasks) gs.push_back(t.benefit);
  const auto server =
      std::make_shared<const sim::BenefitDrivenResponse>(std::move(gs));
  std::vector<exp::ScenarioSpec> inline_specs;
  for (const double error : {-0.2, 0.0, 0.2}) {
    for (const mckp::SolverKind solver :
         {mckp::SolverKind::kDpProfits, mckp::SolverKind::kHeuOe}) {
      exp::ScenarioSpec s;
      s.tasks = tasks;
      s.odm.solver = solver;
      s.odm.estimation_error = error;
      s.odm.apply_task_weights = false;
      s.server = server;
      s.sim.horizon = Duration::from_ms(4000);
      s.sim.benefit_semantics = sim::BenefitSemantics::kTimelyCount;
      inline_specs.push_back(std::move(s));
    }
  }
  exp::BatchConfig batch;
  batch.jobs = 2;
  const std::vector<exp::ScenarioOutcome> inline_out =
      exp::BatchRunner(batch).run(inline_specs);

  ASSERT_EQ(spec_out.size(), inline_out.size());
  std::uint64_t timely = 0;
  for (std::size_t i = 0; i < spec_out.size(); ++i) {
    SCOPED_TRACE("scenario " + std::to_string(i));
    EXPECT_TRUE(
        core::decisions_equal(spec_out[i].decisions, inline_out[i].decisions));
    EXPECT_EQ(spec_out[i].odm.claimed_objective,
              inline_out[i].odm.claimed_objective);
    EXPECT_TRUE(sim::metrics_equal(spec_out[i].metrics, inline_out[i].metrics));
    timely += spec_out[i].metrics.total_timely_results();
  }
  EXPECT_GT(timely, 0u) << "the grid offloaded nothing; the match is vacuous";
}

}  // namespace
