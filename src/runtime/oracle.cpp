#include "runtime/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "core/odm.hpp"
#include "rt/health.hpp"
#include "sim/batch_engine.hpp"
#include "util/rng.hpp"

namespace rt::runtime {

namespace {

struct PooledTotals {
  std::uint64_t released = 0;
  std::uint64_t attempts = 0;
  std::uint64_t timely = 0;
  std::uint64_t compensations = 0;
  std::uint64_t misses = 0;

  PooledTotals& operator+=(const sim::SimMetrics& m) {
    for (const auto& tm : m.per_task) {
      released += tm.released;
      attempts += tm.offload_attempts;
      timely += tm.timely_results;
      compensations += tm.compensations;
      misses += tm.deadline_misses;
    }
    return *this;
  }
};

RateCheck make_rate_check(const std::string& metric, std::uint64_t sim_num,
                          std::uint64_t sim_den, std::uint64_t real_num,
                          std::uint64_t real_den, const OracleConfig& config) {
  RateCheck check;
  check.metric = metric;
  check.n_real = real_den;
  if (sim_den == 0 || real_den == 0) {
    // No trials on one side: nothing to compare. The released-count check
    // separately guards against "no trials because nothing ran".
    check.pass = true;
    return check;
  }
  check.predicted =
      static_cast<double>(sim_num) / static_cast<double>(sim_den);
  check.measured =
      static_cast<double>(real_num) / static_cast<double>(real_den);
  const double p = std::clamp(check.predicted, 0.0, 1.0);
  const double se =
      std::sqrt(p * (1.0 - p) *
                (1.0 / static_cast<double>(real_den) +
                 1.0 / static_cast<double>(sim_den)));
  check.tolerance = config.z * se + config.slack;
  check.pass = std::abs(check.predicted - check.measured) <= check.tolerance;
  return check;
}

}  // namespace

std::string RateCheck::to_string() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%-18s predicted=%.4f measured=%.4f tol=%.4f n=%llu %s",
                metric.c_str(), predicted, measured, tolerance,
                static_cast<unsigned long long>(n_real),
                pass ? "PASS" : "FAIL");
  return buf;
}

bool OracleOutcome::passed() const {
  for (const auto& check : checks) {
    if (!check.pass) return false;
  }
  return true;
}

std::string OracleOutcome::summary() const {
  std::string out;
  for (const auto& check : checks) {
    out += check.to_string();
    out += '\n';
  }
  out += passed() ? "oracle: PASS" : "oracle: FAIL";
  return out;
}

OracleOutcome run_differential(const spec::ScenarioDoc& doc,
                               const OracleConfig& config) {
  spec::BuiltScenario built = spec::build_scenario(doc);
  if (built.server == nullptr) {
    throw spec::SpecError(spec::SpecPath{},
                          "differential oracle requires a server section");
  }
  const core::OdmResult odm = core::decide_offloading(built.tasks, built.odm);

  // --- simulated side: K pooled replications -------------------------
  sim::SimConfig sim_config = built.sim;
  std::unique_ptr<health::ModeController> sim_controller;
  if (built.controller != nullptr) {
    sim_controller = std::make_unique<health::ModeController>(*built.controller);
    sim_config.controller = sim_controller.get();
  }
  sim::BatchSimEngine engine;
  const sim::BatchResult batch =
      engine.run(built.tasks, odm.decisions, *built.server, sim_config,
                 config.sim_replications, built.profile);
  PooledTotals sim_totals;
  for (const auto& metrics : batch.per_replication) sim_totals += metrics;

  // --- real side: loopback daemon + OffloadRuntime -------------------
  GpuServiceOptions service_options;
  service_options.apply_spec_section(doc.runtime);
  LoopbackGpuServer server(built.server->clone(),
                           derive_seed(built.sim.seed, 0x6775),
                           service_options);

  RuntimeOptions runtime_options;
  runtime_options.apply_spec_section(doc.runtime);
  runtime_options.server = server.address();
  sim::SimConfig real_config = built.sim;
  std::unique_ptr<health::ModeController> real_controller;
  if (built.controller != nullptr) {
    real_controller =
        std::make_unique<health::ModeController>(*built.controller);
    real_config.controller = real_controller.get();
  }

  OracleOutcome outcome;
  outcome.real = run_offload_runtime(built.tasks, odm.decisions, real_config,
                                     built.profile, runtime_options);
  outcome.server_stats = server.stop();
  outcome.sim_attempts = sim_totals.attempts;
  outcome.sim_released = sim_totals.released;

  PooledTotals real_totals;
  real_totals += outcome.real.metrics;

  // Released counts: deterministic under periodic releases (intended
  // release instants are k*T on both sides), so exact equality; sporadic
  // draws differ per RNG stream, so compare as a loose rate instead.
  RateCheck released;
  released.metric = "released";
  released.n_real = real_totals.released;
  released.predicted = static_cast<double>(sim_totals.released) /
                       static_cast<double>(config.sim_replications);
  released.measured = static_cast<double>(real_totals.released);
  if (built.sim.release_policy == sim::ReleasePolicy::kPeriodic) {
    released.tolerance = 0.0;
    released.pass = released.measured == released.predicted;
  } else {
    released.tolerance = 0.25 * released.predicted;
    released.pass = std::abs(released.measured - released.predicted) <=
                    released.tolerance;
  }
  outcome.checks.push_back(released);

  outcome.checks.push_back(make_rate_check(
      "timely_rate", sim_totals.timely, sim_totals.attempts,
      real_totals.timely, real_totals.attempts, config));
  outcome.checks.push_back(make_rate_check(
      "compensation_rate", sim_totals.compensations, sim_totals.attempts,
      real_totals.compensations, real_totals.attempts, config));
  outcome.checks.push_back(make_rate_check(
      "miss_rate", sim_totals.misses, sim_totals.released,
      real_totals.misses, real_totals.released, config));
  return outcome;
}

}  // namespace rt::runtime
