#pragma once
// Differential oracle: the simulator as the specification for the real
// runtime.
//
// One scenario document is executed twice -- K Monte-Carlo replications
// through sim::BatchSimEngine, and once for real through OffloadRuntime
// against an in-process LoopbackGpuServer serving the same composed
// ResponseModel/FaultInjector stack. The protocol outcome *rates*
// (timely results and compensations per offload attempt, deadline misses
// per released job) must agree within binomial confidence bounds.
//
// Tolerance per rate check (docs/RUNTIME.md derives this): both sides
// estimate the same underlying Bernoulli rate p from independent trials,
// so the difference of the two estimators has standard error
//     se = sqrt(p*(1-p) * (1/n_real + 1/n_sim))
// with n_sim the *pooled* simulated trial count (K replications). The
// check allows z * se plus a small fixed slack absorbing what the
// binomial model does not cover: loop scheduling jitter flipping
// near-boundary races, and the runtime's RNG stream interleaving
// differing from the simulator's. Released-job counts are deterministic
// under periodic releases and are checked exactly.
//
// Only runtime_oracle_test runs it, so it lives in tests/support
// (rt_runtime_oracle), not in the runtime library.

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/gpu_service.hpp"
#include "runtime/offload_runtime.hpp"
#include "spec/scenario_doc.hpp"

namespace rt::runtime {

struct OracleConfig {
  /// Simulator replications pooled into the prediction.
  std::size_t sim_replications = 64;
  /// Normal quantile of the confidence band (1.96 ~ 95%).
  double z = 1.96;
  /// Fixed additive slack per rate check (see header).
  double slack = 0.03;
};

struct RateCheck {
  std::string metric;
  double predicted = 0.0;   ///< pooled simulator estimate
  double measured = 0.0;    ///< real-runtime estimate
  double tolerance = 0.0;   ///< |predicted - measured| must not exceed this
  std::uint64_t n_real = 0; ///< real-side trial count
  bool pass = false;

  [[nodiscard]] std::string to_string() const;
};

struct OracleOutcome {
  std::vector<RateCheck> checks;
  RuntimeResult real;            ///< the full real-run result
  GpuServiceStats server_stats;  ///< loopback daemon counters
  std::uint64_t sim_attempts = 0;   ///< pooled over replications
  std::uint64_t sim_released = 0;

  [[nodiscard]] bool passed() const;
  [[nodiscard]] std::string summary() const;
};

/// Runs the differential check for one (sweep-free) document. The
/// document must have a server section (the oracle needs the model on
/// both sides); throws spec::SpecError otherwise. Fully deterministic on
/// the simulator side; the real side is seeded deterministically but
/// measures genuine wall-clock races.
OracleOutcome run_differential(const spec::ScenarioDoc& doc,
                               const OracleConfig& config = {});

}  // namespace rt::runtime
