#pragma once
// Parallel batch evaluation of offloading scenarios.
//
// The paper's evaluation (Figure 3, Table 1, the ablations) is a design-
// space sweep: hundreds of (task set x utilization x estimation error x
// seed) scenarios, each running the ODM plus a discrete-event simulation.
// Scenarios are independent, so BatchRunner fans them out over workers
// while keeping results bit-identical for every worker count:
//
//   * per-scenario seeding -- every scenario's simulation seed is derived
//     from (base_seed, scenario index) by scenario_seed(), never drawn
//     from shared RNG state;
//   * per-scenario isolation -- every scenario gets its own Rng and its
//     own server::ResponseModel instance (the spec's prototype is
//     clone()d), because neither is thread-safe;
//   * index-addressed results -- workers write disjoint slots of a
//     preallocated vector, so the schedule cannot reorder anything.
//
// A call on n indices runs min(jobs, n) workers: the calling thread is
// worker 0 and min(jobs, n) - 1 threads are started for the call and
// joined before it returns. Workers take contiguous index chunks from one
// atomic counter. Worker w owns the runner's slot w (its engines, which
// persist across calls) and, under a sink, telemetry shard w. So one
// runner serves one call at a time.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/decision.hpp"
#include "core/odm.hpp"
#include "core/task.hpp"
#include "rt/health.hpp"
#include "server/response_model.hpp"
#include "sim/batch_engine.hpp"
#include "sim/batch_metrics.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rt::obs {
class Sink;
}  // namespace rt::obs

namespace rt::exp {

struct BatchConfig {
  /// Workers; 1 = serial in the calling thread, 0 = one per hardware
  /// thread.
  unsigned jobs = 1;
  /// Root of the per-scenario seed derivation.
  std::uint64_t base_seed = 1;
};

/// Deterministic per-scenario seed: splitmix64-style mix of the base seed
/// and the scenario index. Identical for every worker count by
/// construction.
std::uint64_t scenario_seed(std::uint64_t base_seed, std::size_t index);

/// One scenario: a task set, how to decide, and what to simulate against.
struct ScenarioSpec {
  core::TaskSet tasks;
  /// ODM configuration used when `decisions` is not set.
  core::OdmConfig odm;
  /// Pre-computed decisions (baseline policies); bypasses the ODM.
  std::optional<core::DecisionVector> decisions;
  /// Server prototype, clone()d per scenario; may be shared by many specs.
  /// nullptr skips the simulation (ODM-only sweeps).
  std::shared_ptr<const server::ResponseModel> server;
  /// Simulation parameters. `sim.seed` is ignored and replaced by
  /// scenario_seed(base_seed, index); `sim.controller` is likewise ignored
  /// (a caller-set controller would be shared across scenarios, which the
  /// stateful single-threaded ModeController forbids) -- use `adaptive`.
  sim::SimConfig sim;
  /// Adaptive degraded-mode control (rt/health.hpp): when set, every
  /// scenario simulates with its own ModeController built from this shared
  /// prototype, so outcomes stay bit-identical for every worker count.
  /// nullptr (the default) simulates the static vector only.
  std::shared_ptr<const health::ModeControllerConfig> adaptive;
  sim::RequestProfile profile;
  /// Monte-Carlo replications of the simulation. 1 (the default) runs the
  /// serial engine exactly as before. K > 1 runs the batched engine
  /// (sim/batch_engine.hpp): one decision pass, K simulations under seeds
  /// derived from the scenario seed, outcome.metrics = replication 0 and
  /// outcome.aggregate carrying the cross-replication statistics.
  std::size_t replications = 1;
  /// Opaque caller bookkeeping (e.g. grid coordinates), copied to the
  /// outcome.
  std::uint64_t tag = 0;
};

struct ScenarioOutcome {
  std::size_t index = 0;
  std::uint64_t tag = 0;
  /// Full ODM result; default-constructed when the spec supplied
  /// decisions.
  core::OdmResult odm;
  /// The decisions actually simulated.
  core::DecisionVector decisions;
  /// Default-constructed (empty per_task) when the spec had no server.
  /// With replications > 1, the metrics of replication 0 (whose seed is
  /// the scenario seed's first derived stream, not the scenario seed
  /// itself).
  sim::SimMetrics metrics;
  /// Cross-replication aggregate; aggregate.replications == the spec's
  /// replication count (0 when the spec had no server).
  sim::BatchMetrics aggregate;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchConfig config = {});
  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  [[nodiscard]] unsigned jobs() const { return jobs_; }
  [[nodiscard]] const BatchConfig& config() const { return config_; }

  /// Evaluates every spec (decide -> clone server -> simulate -> metrics);
  /// results are index-aligned with `specs`.
  ///
  /// `sink` (optional, docs/ANALYSIS.md §8) collects batch telemetry:
  /// per-scenario phase events and batch.* / odm.* / mckp.* / sim.*
  /// metrics. Worker w records into its own shard, and the shards are
  /// merged into `sink` in worker order after the join, so the outcomes
  /// stay bit-identical for every worker count with or without telemetry.
  /// Any sink already set on a spec's OdmConfig/SimConfig is overridden by
  /// the worker's shard (a caller-supplied sink would be shared across
  /// workers, which the Sink contract forbids).
  ///
  /// Rethrows the first exception a scenario threw, after every worker
  /// has stopped; the remaining scenarios may then not have run.
  std::vector<ScenarioOutcome> run(const std::vector<ScenarioSpec>& specs,
                                   obs::Sink* sink = nullptr);

  /// Generic fan-out for custom per-scenario work: body(index, rng) runs
  /// once per index in [0, n) with an Rng seeded by scenario_seed(). The
  /// body must only touch per-index state (or synchronize itself).
  /// Exceptions propagate as in run().
  void for_each(std::size_t n,
                const std::function<void(std::size_t, Rng&)>& body);

 private:
  /// One worker's engines. The serial engine keeps its release schedule
  /// across scenarios and run() calls (docs/ANALYSIS.md §9); the batched
  /// engine is built for the worker's first spec with replications > 1.
  struct Worker {
    sim::SimEngine engine;
    std::unique_ptr<sim::BatchSimEngine> batch;
  };

  ScenarioOutcome run_one(const ScenarioSpec& spec, std::size_t index,
                          obs::Sink* shard, Worker& worker) const;

  /// Runs body(w, index) once per index in [0, n) on `workers` workers.
  void fan_out(std::size_t n, unsigned workers,
               const std::function<void(unsigned, std::size_t)>& body) const;

  BatchConfig config_;
  unsigned jobs_ = 1;
  /// Slot w belongs to worker w; grown to the widest call so far.
  std::vector<Worker> workers_;
};

}  // namespace rt::exp
