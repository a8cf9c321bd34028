// End-to-end: fault injection (server/faults.hpp) + the health-driven
// degraded-mode controller (rt/health.hpp) in the discrete-event engine.
//
// The setting is Figure 3's: the server's response distribution is the
// benefit function itself, so the benefit IS the probability of a timely
// higher-performance result and G(0) = 0. A mid-run slowdown-plus-drop
// window makes the static vector burn its setup budgets on compensations,
// while the adaptive controller switches to a pessimistic ODM vector whose
// windows admit the inflated responses -- strictly more benefit, still zero
// deadline misses (no_misses holds in both runs).

#include <gtest/gtest.h>

#include "core/odm.hpp"
#include "core/workload.hpp"
#include "rt/health.hpp"
#include "server/faults.hpp"
#include "sim/benefit_response.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"
#include "support/compare.hpp"
#include "support/reference_engine.hpp"

namespace rt::sim {
namespace {

using namespace rt::literals;

constexpr double kSlowdownFactor = 2.0;

struct Setting {
  core::TaskSet tasks;
  core::DecisionVector static_decisions;
  core::DecisionVector degraded_decisions;
  std::unique_ptr<server::FaultInjector> server;  ///< faulted benefit server
};

server::FaultScript midrun_fault() {
  server::FaultScript script;
  script.seed = 0xFA02;
  server::FaultClause slow;
  slow.kind = server::FaultKind::kSlowdown;
  slow.start = TimePoint::zero() + Duration::seconds(15);
  slow.end = TimePoint::zero() + Duration::seconds(45);
  slow.factor = kSlowdownFactor;
  server::FaultClause burst = slow;
  burst.kind = server::FaultKind::kDropBurst;
  burst.drop_probability = 0.25;
  script.clauses = {slow, burst};
  return script;
}

Setting make_setting() {
  Rng rng(20140601);
  core::PaperSimConfig wl;
  wl.num_tasks = 12;
  Setting s;
  s.tasks = core::make_paper_simulation_taskset(rng, wl);

  core::OdmConfig odm;
  odm.apply_task_weights = false;
  s.static_decisions = core::decide_offloading(s.tasks, odm).decisions;
  core::OdmConfig pessimistic = odm;
  pessimistic.estimation_error = kSlowdownFactor - 1.0;
  s.degraded_decisions = core::decide_offloading(s.tasks, pessimistic).decisions;

  std::vector<core::BenefitFunction> gs;
  for (const auto& t : s.tasks) gs.push_back(t.benefit);
  s.server = std::make_unique<server::FaultInjector>(
      std::make_unique<BenefitDrivenResponse>(std::move(gs)), midrun_fault());
  return s;
}

health::ModeControllerConfig controller_config(core::DecisionVector degraded) {
  health::ModeControllerConfig mc;
  // Healthy shadow rate here is the mean G(r_level), around 0.6 -- the
  // thresholds sit below that, with the usual hysteresis band between them.
  mc.health.window = 32;
  mc.health.min_samples = 8;
  mc.health.degrade_below = 0.3;
  mc.health.recover_above = 0.5;
  mc.health.min_normal_dwell = Duration::seconds(1);
  mc.health.min_degraded_dwell = Duration::seconds(2);
  mc.degraded = std::move(degraded);
  return mc;
}

SimConfig fig3_config() {
  SimConfig cfg;
  cfg.horizon = Duration::seconds(60);
  cfg.seed = 77;
  cfg.benefit_semantics = BenefitSemantics::kTimelyCount;
  cfg.exec_policy = ExecTimePolicy::kUniformFraction;
  return cfg;
}

TEST(Adaptive, BeatsStaticUnderScriptedFaultWithZeroMisses) {
  const Setting s = make_setting();
  const SimConfig cfg = fig3_config();

  const std::unique_ptr<server::ResponseModel> srv_static = s.server->clone();
  const SimResult st =
      simulate(s.tasks, s.static_decisions, *srv_static, cfg);

  health::ModeController controller(controller_config(s.degraded_decisions));
  SimConfig adaptive_cfg = cfg;
  adaptive_cfg.controller = &controller;
  const std::unique_ptr<server::ResponseModel> srv_adaptive = s.server->clone();
  const SimResult ad =
      simulate(s.tasks, s.static_decisions, *srv_adaptive, adaptive_cfg);

  // The guarantee must hold in both modes.
  EXPECT_TRUE(no_misses(st.metrics));
  EXPECT_TRUE(no_misses(ad.metrics));
  EXPECT_EQ(st.metrics.mode_changes, 0u);
  EXPECT_GE(ad.metrics.mode_changes, 2u);  // degrade, then recover
  EXPECT_GT(ad.metrics.time_in_degraded_ns, 0);
  EXPECT_LT(ad.metrics.time_in_degraded_ns, cfg.horizon.ns());
  EXPECT_GT(ad.metrics.total_benefit(), st.metrics.total_benefit());
}

TEST(Adaptive, ModeChangeTraceEventsMatchTheMetric) {
  const Setting s = make_setting();
  health::ModeController controller(controller_config(s.degraded_decisions));
  SimConfig cfg = fig3_config();
  cfg.controller = &controller;
  cfg.trace_capacity = 200'000;

  const std::unique_ptr<server::ResponseModel> srv = s.server->clone();
  const SimResult res = simulate(s.tasks, s.static_decisions, *srv, cfg);
  ASSERT_FALSE(res.metrics.trace_truncated);
  EXPECT_TRUE(no_misses(res.metrics));

  std::uint64_t changes = 0;
  std::size_t last_mode = 0;
  for (const auto& ev : res.trace.events()) {
    if (ev.kind != TraceKind::kModeChange) continue;
    ++changes;
    // The event's task field is the new mode; transitions must alternate
    // starting with enter-degraded, and the job field runs the count.
    EXPECT_EQ(ev.task, last_mode == 0 ? 1u : 0u);
    EXPECT_EQ(ev.job, changes);
    last_mode = ev.task;
  }
  EXPECT_EQ(changes, res.metrics.mode_changes);
  EXPECT_GE(changes, 2u);
}

TEST(Adaptive, NeverTriggeringControllerLeavesMetricsUntouched) {
  // degrade_below = 0 can never fire (no rate is < 0), so the controller
  // rides along without ever switching -- and the run must be bit-identical
  // to the same seed without a controller, mode bookkeeping aside.
  const Setting s = make_setting();
  SimConfig cfg = fig3_config();

  const std::unique_ptr<server::ResponseModel> srv_plain = s.server->clone();
  const SimResult plain =
      simulate(s.tasks, s.static_decisions, *srv_plain, cfg);

  health::ModeControllerConfig mc = controller_config(s.degraded_decisions);
  mc.health.degrade_below = 0.0;
  mc.health.recover_above = 0.5;
  health::ModeController controller(mc);
  SimConfig with_ctl = cfg;
  with_ctl.controller = &controller;
  const std::unique_ptr<server::ResponseModel> srv_ctl = s.server->clone();
  const SimResult inert =
      simulate(s.tasks, s.static_decisions, *srv_ctl, with_ctl);

  EXPECT_TRUE(no_misses(plain.metrics));
  EXPECT_EQ(inert.metrics.mode_changes, 0u);
  EXPECT_EQ(inert.metrics.time_in_degraded_ns, 0);
  EXPECT_TRUE(metrics_equal(plain.metrics, inert.metrics));
}

// The fault injector is just another ResponseModel: with no controller the
// zero-allocation engine must still match the seed reference engine bit for
// bit through a faulted run.
TEST(Adaptive, FaultedStaticRunMatchesTheReferenceEngine) {
  const Setting s = make_setting();
  SimConfig cfg = fig3_config();
  cfg.trace_capacity = 200'000;

  const std::unique_ptr<server::ResponseModel> srv_ref = s.server->clone();
  const std::unique_ptr<server::ResponseModel> srv_opt = s.server->clone();
  const SimResult ref =
      simulate_reference(s.tasks, s.static_decisions, *srv_ref, cfg);
  SimEngine engine;
  const SimResult opt = engine.run(s.tasks, s.static_decisions, *srv_opt, cfg);

  EXPECT_TRUE(metrics_equal(ref.metrics, opt.metrics));
  EXPECT_TRUE(traces_equal(ref.trace, opt.trace));
}

}  // namespace
}  // namespace rt::sim
