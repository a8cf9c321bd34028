#include "rt/health.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/odm.hpp"
#include "core/schedulability.hpp"
#include "core/workload.hpp"

namespace rt::health {
namespace {

using namespace rt::literals;

TimePoint at_ms(std::int64_t ms) {
  return TimePoint::zero() + Duration::milliseconds(ms);
}

/// Two tasks: task 0 offloaded with a 50 ms normal window, task 1 local.
core::DecisionVector normal_vector() {
  core::DecisionVector v = core::all_local(2);
  v[0] = core::Decision::offload(1, 50_ms);
  return v;
}

HealthConfig fast_config() {
  HealthConfig hc;
  hc.window = 8;
  hc.min_samples = 4;
  hc.degrade_below = 0.5;
  hc.recover_above = 0.8;
  hc.min_normal_dwell = Duration::zero();
  hc.min_degraded_dwell = Duration::zero();
  return hc;
}

TEST(HealthConfig, ValidationRejectsEachBadField) {
  EXPECT_NO_THROW(HealthConfig{}.validate());
  HealthConfig hc;
  hc.window = 0;
  EXPECT_THROW(hc.validate(), std::invalid_argument);
  hc = HealthConfig{};
  hc.window = 65;
  EXPECT_THROW(hc.validate(), std::invalid_argument);
  hc = HealthConfig{};
  hc.min_samples = 0;
  EXPECT_THROW(hc.validate(), std::invalid_argument);
  hc = HealthConfig{};
  hc.min_samples = hc.window + 1;
  EXPECT_THROW(hc.validate(), std::invalid_argument);
  hc = HealthConfig{};
  hc.degrade_below = std::nan("");
  EXPECT_THROW(hc.validate(), std::invalid_argument);
  hc = HealthConfig{};
  hc.recover_above = 1.5;
  EXPECT_THROW(hc.validate(), std::invalid_argument);
  hc = HealthConfig{};
  hc.degrade_below = 0.6;
  hc.recover_above = 0.6;  // no hysteresis band
  EXPECT_THROW(hc.validate(), std::invalid_argument);
  hc = HealthConfig{};
  hc.min_normal_dwell = Duration::milliseconds(-1);
  EXPECT_THROW(hc.validate(), std::invalid_argument);
}

/// An armed controller over normal_vector() whose window holds `window`
/// outcomes; it never switches unless evaluate() is called.
ModeController window_controller(std::size_t window) {
  ModeControllerConfig cfg;
  cfg.health.window = window;
  cfg.health.min_samples = 1;
  ModeController ctl(cfg);
  ctl.begin_run(normal_vector(), TimePoint::zero());
  return ctl;
}

// The controller's health window, fed through on_outcome: 10 ms is inside
// task 0's 50 ms normal window, so a raw-timely outcome counts as timely.
TEST(HealthMonitor, WindowSlidesAndEvictsOldest) {
  ModeController ctl = window_controller(4);
  for (int i = 0; i < 4; ++i) ctl.on_outcome(0, true, 10_ms);
  EXPECT_EQ(ctl.samples(), 4u);
  EXPECT_DOUBLE_EQ(ctl.timely_rate(), 1.0);
  ctl.on_outcome(0, false, 10_ms);  // evicts one of the trues
  EXPECT_EQ(ctl.samples(), 4u);
  EXPECT_DOUBLE_EQ(ctl.timely_rate(), 0.75);
  for (int i = 0; i < 4; ++i) ctl.on_outcome(0, false, 10_ms);
  EXPECT_DOUBLE_EQ(ctl.timely_rate(), 0.0);
}

TEST(HealthMonitor, FullWidthWindowHolds64Samples) {
  ModeController ctl = window_controller(64);
  for (int i = 0; i < 64; ++i) ctl.on_outcome(0, true, 1_ms);
  EXPECT_EQ(ctl.samples(), 64u);
  EXPECT_DOUBLE_EQ(ctl.timely_rate(), 1.0);
  ctl.on_outcome(0, false, 1_ms);
  EXPECT_EQ(ctl.samples(), 64u);
  EXPECT_DOUBLE_EQ(ctl.timely_rate(), 63.0 / 64.0);
}

TEST(ModeController, DegradesOnFailuresAndProbesBack) {
  ModeControllerConfig cfg;
  cfg.health = fast_config();  // degraded vector left empty: all-local
  ModeController ctl(cfg);
  ctl.begin_run(normal_vector(), TimePoint::zero());
  EXPECT_EQ(ctl.mode(), Mode::kNormal);
  ASSERT_EQ(ctl.degraded_decisions().size(), 2u);
  EXPECT_FALSE(ctl.degraded_decisions()[0].offloaded());

  for (int i = 0; i < 4; ++i) ctl.on_outcome(0, false, 200_ms);
  EXPECT_EQ(ctl.evaluate(at_ms(10)), Mode::kDegraded);
  EXPECT_EQ(ctl.mode_changes(), 1u);
  // The switch cleared the window: the degrade evidence is not reused.
  EXPECT_EQ(ctl.samples(), 0u);

  // All-local degraded mode generates no offloads, so no samples arrive;
  // after the dwell the controller probes normal mode again.
  EXPECT_EQ(ctl.evaluate(at_ms(20)), Mode::kNormal);
  EXPECT_EQ(ctl.mode_changes(), 2u);
}

TEST(ModeController, DwellTimesGateBothDirections) {
  ModeControllerConfig cfg;
  cfg.health = fast_config();
  cfg.health.min_normal_dwell = Duration::seconds(1);
  cfg.health.min_degraded_dwell = Duration::seconds(2);
  ModeController ctl(cfg);
  ctl.begin_run(normal_vector(), TimePoint::zero());

  for (int i = 0; i < 8; ++i) ctl.on_outcome(0, false, 200_ms);
  EXPECT_EQ(ctl.evaluate(at_ms(500)), Mode::kNormal);  // dwell not served
  EXPECT_EQ(ctl.evaluate(at_ms(1500)), Mode::kDegraded);
  EXPECT_EQ(ctl.evaluate(at_ms(2000)), Mode::kDegraded);  // degraded dwell
  EXPECT_EQ(ctl.evaluate(at_ms(3600)), Mode::kNormal);    // probe after dwell
}

TEST(ModeController, ShadowJudgesAgainstTheNormalWindow) {
  ModeControllerConfig cfg;
  cfg.health = fast_config();
  ModeController ctl(cfg);
  ctl.begin_run(normal_vector(), TimePoint::zero());
  // Raw-timely under a fat degraded window, but slower than the 50 ms
  // normal window: must count as a failure.
  ctl.on_outcome(0, true, 80_ms);
  EXPECT_DOUBLE_EQ(ctl.timely_rate(), 0.0);
  ctl.on_outcome(0, true, 40_ms);  // genuinely healthy
  EXPECT_DOUBLE_EQ(ctl.timely_rate(), 0.5);
  ctl.on_outcome(0, false, 300_ms);
  EXPECT_NEAR(ctl.timely_rate(), 1.0 / 3.0, 1e-12);
  // Task 1 is local under the normal vector: no normal window to judge
  // against, so its raw verdict stands however slow the response.
  ctl.on_outcome(1, true, 500_ms);
  EXPECT_DOUBLE_EQ(ctl.timely_rate(), 0.5);
}

TEST(ModeController, RecoveryNeedsTheRateWhenSamplesExist) {
  // Degraded vector still offloads task 0 (wider window), so recovery has
  // evidence to judge and the probe path must not trigger.
  ModeControllerConfig cfg;
  cfg.health = fast_config();
  cfg.degraded = core::all_local(2);
  cfg.degraded[0] = core::Decision::offload(1, 150_ms);
  ModeController ctl(cfg);
  ctl.begin_run(normal_vector(), TimePoint::zero());

  for (int i = 0; i < 4; ++i) ctl.on_outcome(0, false, 200_ms);
  ASSERT_EQ(ctl.evaluate(at_ms(10)), Mode::kDegraded);

  // Timely against the degraded window only: shadow failures, no recovery.
  for (int i = 0; i < 8; ++i) ctl.on_outcome(0, true, 120_ms);
  EXPECT_EQ(ctl.evaluate(at_ms(30)), Mode::kDegraded);

  // Fast again: shadow successes push the rate past recover_above.
  for (int i = 0; i < 8; ++i) ctl.on_outcome(0, true, 30_ms);
  EXPECT_EQ(ctl.evaluate(at_ms(50)), Mode::kNormal);
  EXPECT_EQ(ctl.mode_changes(), 2u);
}

TEST(ModeController, BeginRunChecksArityAndRearms) {
  ModeControllerConfig cfg;
  cfg.health = fast_config();
  cfg.degraded = core::all_local(3);
  ModeController ctl(cfg);
  EXPECT_THROW(ctl.begin_run(normal_vector(), TimePoint::zero()),
               std::invalid_argument);

  // Unarmed controllers are inert (the engine only drives armed ones).
  ModeController idle;
  EXPECT_EQ(idle.evaluate(at_ms(100)), Mode::kNormal);
  idle.on_outcome(0, false, 10_ms);
  EXPECT_EQ(idle.mode_changes(), 0u);

  // Re-arming resets the run state.
  ModeControllerConfig ok;
  ok.health = fast_config();
  ModeController ctl2(ok);
  ctl2.begin_run(normal_vector(), TimePoint::zero());
  for (int i = 0; i < 4; ++i) ctl2.on_outcome(0, false, 200_ms);
  ASSERT_EQ(ctl2.evaluate(at_ms(10)), Mode::kDegraded);
  ctl2.begin_run(normal_vector(), at_ms(1000));
  EXPECT_EQ(ctl2.mode(), Mode::kNormal);
  EXPECT_EQ(ctl2.mode_changes(), 0u);
  EXPECT_EQ(ctl2.samples(), 0u);
}

TEST(SwitchEnvelope, TakesTheWorsePerTaskDensity) {
  Rng rng(7);
  const core::TaskSet tasks = core::make_paper_simulation_taskset(rng);
  const core::DecisionVector normal = core::decide_offloading(tasks).decisions;
  const core::DecisionVector degraded = core::all_local(tasks.size());

  const double envelope = switch_envelope_density(tasks, normal, degraded);
  double normal_total = 0.0, local_total = 0.0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    normal_total += core::decision_density(tasks[i], normal[i]).to_double();
    local_total += core::decision_density(tasks[i], degraded[i]).to_double();
  }
  EXPECT_GE(envelope + 1e-9, normal_total);
  EXPECT_GE(envelope + 1e-9, local_total);
  EXPECT_LE(envelope, normal_total + local_total + 1e-9);

  EXPECT_THROW(
      switch_envelope_density(tasks, normal, core::all_local(tasks.size() - 1)),
      std::invalid_argument);
}

}  // namespace
}  // namespace rt::health
