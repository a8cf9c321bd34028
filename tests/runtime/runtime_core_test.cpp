// OffloadRuntime paths that run through the shared protocol core
// (sim/protocol_core.hpp): input validation, which must reject a bad run
// before any connect, and the degraded-mode controller driven by real
// compensation timers against a server that never replies.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "core/odm.hpp"
#include "rt/health.hpp"
#include "runtime/gpu_service.hpp"
#include "runtime/offload_runtime.hpp"
#include "spec/scenario_doc.hpp"
#include "util/rng.hpp"

namespace rt::runtime {
namespace {

using namespace rt::literals;

/// One offloadable task (R = 40 ms) behind the given server stack; ten
/// periodic releases in the 1 s horizon, time-dilated to 0.5 s of wall.
spec::BuiltScenario scenario(const std::string& server_json) {
  const spec::ScenarioDoc doc = spec::ScenarioDoc::parse_text(R"({
    "version": 1,
    "workload": {
      "type": "inline",
      "tasks": [
        {
          "name": "worker",
          "period_ms": 100,
          "local_wcet_ms": 30,
          "setup_wcet_ms": 4,
          "compensation_wcet_ms": 16,
          "benefit": [[0, 1.0], [40, 8.0]]
        }
      ]
    },
    "odm": {"solver": "dp-profits"},
    "server": )" + server_json + R"(,
    "sim": {"horizon_ms": 1000, "seed": 11}
  })");
  return spec::build_scenario(doc);
}

/// A port nothing listens on: a connect attempt would throw
/// std::runtime_error, so std::invalid_argument proves validation ran first.
RuntimeOptions unreachable_server() {
  RuntimeOptions options;
  options.server = net::SocketAddress{"127.0.0.1", 1};
  options.connect_timeout = Duration::milliseconds(200);
  return options;
}

TEST(RuntimeValidationTest, RejectsBadInputsBeforeConnecting) {
  spec::BuiltScenario built = scenario(R"({"type":"never"})");
  const RuntimeOptions options = unreachable_server();
  const core::DecisionVector offload{core::Decision::offload(1, 40_ms)};

  // Arity mismatch.
  EXPECT_THROW(run_offload_runtime(built.tasks, {}, built.sim, built.profile,
                                   options),
               std::invalid_argument);
  // R >= D leaves no room for compensation.
  const core::DecisionVector too_late{core::Decision::offload(1, 100_ms)};
  EXPECT_THROW(run_offload_runtime(built.tasks, too_late, built.sim,
                                   built.profile, options),
               std::invalid_argument);
  // Decision level past the per-level WCET tables.
  core::TaskSet leveled = built.tasks;
  leveled[0].setup_wcet_per_level = {0_ms, 4_ms};
  leveled[0].compensation_wcet_per_level = {0_ms, 16_ms};
  const core::DecisionVector out_of_range{core::Decision::offload(5, 40_ms)};
  EXPECT_THROW(run_offload_runtime(leveled, out_of_range, built.sim,
                                   built.profile, options),
               std::invalid_argument);
  // Non-positive time dilation.
  for (const double scale : {0.0, -1.0}) {
    RuntimeOptions scaled = options;
    scaled.time_scale = scale;
    EXPECT_THROW(run_offload_runtime(built.tasks, offload, built.sim,
                                     built.profile, scaled),
                 std::invalid_argument);
  }
  // The valid vector gets as far as the connect, which fails.
  EXPECT_THROW(run_offload_runtime(built.tasks, offload, built.sim,
                                   built.profile, options),
               std::runtime_error);
}

TEST(RuntimeControllerTest, NeverReplyingServerDegradesToLocal) {
  spec::BuiltScenario built = scenario(R"({"type":"never"})");
  const core::OdmResult odm = core::decide_offloading(built.tasks, built.odm);
  ASSERT_TRUE(odm.decisions[0].offloaded());

  LoopbackGpuServer server(built.server->clone(),
                           derive_seed(built.sim.seed, 0x6775));
  RuntimeOptions options;
  options.time_scale = 0.5;
  options.server = server.address();

  // Two compensations condemn the server; the degraded (all-local) vector
  // then holds for the rest of the horizon.
  health::ModeControllerConfig mc;
  mc.health.window = 4;
  mc.health.min_samples = 2;
  mc.health.min_normal_dwell = Duration::zero();
  mc.health.min_degraded_dwell = Duration::seconds(10);
  health::ModeController controller(mc);
  sim::SimConfig config = built.sim;
  config.controller = &controller;

  const RuntimeResult result = run_offload_runtime(
      built.tasks, odm.decisions, config, built.profile, options);
  server.stop();

  // Only counts that no timer jitter can move.
  const sim::SimMetrics& m = result.metrics;
  const sim::TaskMetrics& t = m.per_task[0];
  EXPECT_GE(m.mode_changes, 1u);
  EXPECT_GT(m.time_in_degraded_ns, 0);
  EXPECT_LT(result.rpc_sent, t.released);
  EXPECT_EQ(t.compensations, t.offload_attempts);
}

}  // namespace
}  // namespace rt::runtime
