#include "exp/batch.hpp"

#include "obs/sink.hpp"

namespace rt::exp {

std::uint64_t scenario_seed(std::uint64_t base_seed, std::size_t index) {
  // One shared derivation (util/rng): the same (base, index) pair yields
  // the same seed in every layer -- batch, sweep, and the spec grid.
  return derive_seed(base_seed, static_cast<std::uint64_t>(index));
}

BatchRunner::BatchRunner(BatchConfig config) : config_(config) {
  jobs_ = config_.jobs == 0 ? util::default_jobs() : config_.jobs;
  if (jobs_ > 1) pool_ = std::make_unique<util::ThreadPool>(jobs_);
}

BatchRunner::~BatchRunner() = default;

BatchRunner::EngineLease::EngineLease(const BatchRunner& runner)
    : runner_(runner) {
  std::lock_guard<std::mutex> lock(runner_.engines_mutex_);
  if (!runner_.engines_.empty()) {
    engine_ = std::move(runner_.engines_.back());
    runner_.engines_.pop_back();
  } else {
    engine_ = std::make_unique<sim::SimEngine>();
  }
}

BatchRunner::EngineLease::~EngineLease() {
  std::lock_guard<std::mutex> lock(runner_.engines_mutex_);
  runner_.engines_.push_back(std::move(engine_));
}

ScenarioOutcome BatchRunner::run_one(const ScenarioSpec& spec,
                                     std::size_t index,
                                     obs::Sink* shard,
                                     sim::SimEngine& engine) const {
  ScenarioOutcome out;
  out.index = index;
  out.tag = spec.tag;
  if (spec.decisions.has_value()) {
    out.decisions = *spec.decisions;
  } else {
    core::OdmConfig odm_cfg = spec.odm;
    odm_cfg.sink = shard;
    out.odm = core::decide_offloading(spec.tasks, odm_cfg);
    out.decisions = out.odm.decisions;
  }
  if (spec.server != nullptr) {
    sim::SimConfig cfg = spec.sim;
    cfg.seed = scenario_seed(config_.base_seed, index);
    cfg.sink = shard;
    // Fresh controller per scenario (never the caller's: it is stateful).
    cfg.controller = nullptr;
    std::optional<health::ModeController> controller;
    if (spec.adaptive != nullptr) {
      controller.emplace(*spec.adaptive);
      cfg.controller = &*controller;
    }
    if (spec.replications > 1) {
      // Monte-Carlo block: one decision pass, replications simulated by
      // the batched engine under seeds derived from the scenario seed.
      std::unique_ptr<sim::BatchSimEngine> batch = lease_batch_engine();
      sim::BatchResult res =
          batch->run(spec.tasks, out.decisions, *spec.server, cfg,
                     spec.replications, spec.profile);
      if (shard != nullptr) {
        const sim::BatchEngineStats& st = batch->stats();
        auto& reg = shard->registry();
        reg.counter("batch.fast_replications").inc(st.fast_replications);
        reg.counter("batch.fallback_replications").inc(st.fallback_replications);
        reg.counter("sim.batch.resync_windows").inc(st.resync_windows);
        reg.counter("sim.batch.resync_events").inc(st.resync_events);
        reg.counter("sim.batch.ineligible.config").inc(st.ineligible_config);
        reg.counter("sim.batch.ineligible.post_wcet").inc(st.ineligible_post_wcet);
        reg.counter("sim.batch.ineligible.ties").inc(st.ineligible_ties);
      }
      return_batch_engine(std::move(batch));
      out.metrics = std::move(res.per_replication.front());
      out.aggregate = std::move(res.aggregate);
    } else {
      const std::unique_ptr<server::ResponseModel> srv = spec.server->clone();
      const sim::SimResult res =
          engine.run(spec.tasks, out.decisions, *srv, cfg, spec.profile);
      out.metrics = res.metrics;
      out.aggregate.add(out.metrics);
      if (shard != nullptr && res.metrics.trace_truncated) {
        shard->registry().counter("batch.traces_truncated").inc();
      }
    }
  }
  return out;
}

std::unique_ptr<sim::BatchSimEngine> BatchRunner::lease_batch_engine() const {
  std::lock_guard<std::mutex> lock(engines_mutex_);
  if (!batch_engines_.empty()) {
    std::unique_ptr<sim::BatchSimEngine> e = std::move(batch_engines_.back());
    batch_engines_.pop_back();
    return e;
  }
  return std::make_unique<sim::BatchSimEngine>();
}

void BatchRunner::return_batch_engine(
    std::unique_ptr<sim::BatchSimEngine> engine) const {
  std::lock_guard<std::mutex> lock(engines_mutex_);
  batch_engines_.push_back(std::move(engine));
}

std::vector<ScenarioOutcome> BatchRunner::run(
    const std::vector<ScenarioSpec>& specs, obs::Sink* sink) {
  std::vector<ScenarioOutcome> out(specs.size());
  if (sink == nullptr) {
    for_each(specs.size(), [&](std::size_t i, Rng&) {
      EngineLease lease(*this);
      out[i] = run_one(specs[i], i, nullptr, lease.engine());
    });
    return out;
  }

  const std::int64_t t0_ns = sink->now_ns();
  obs::WorkerShards shards(*sink, pool_ != nullptr ? jobs_ : 0);
  for_each(specs.size(), [&](std::size_t i, Rng&) {
    obs::Sink& shard = shards.local();
    obs::PhaseProbe probe(&shard, "scenario " + std::to_string(i),
                          &shard.registry().histogram("batch.scenario_ns"));
    EngineLease lease(*this);
    out[i] = run_one(specs[i], i, &shard, lease.engine());
    shard.registry().counter("batch.scenarios").inc();
  });
  const std::int64_t t1_ns = sink->now_ns();

  // Per-worker throughput, read from the shards before they are folded
  // together. Wall-clock telemetry only: not deterministic across runs.
  const double wall_s = static_cast<double>(t1_ns - t0_ns) / 1e9;
  for (std::size_t w = 0; w < shards.claimed(); ++w) {
    const obs::Counter* done =
        shards.shard(w).registry().find_counter("batch.scenarios");
    const double count = done != nullptr ? static_cast<double>(done->value()) : 0.0;
    const std::string prefix = "batch.worker." + std::to_string(w);
    sink->registry().gauge(prefix + ".scenarios").set(count);
    if (wall_s > 0.0) {
      sink->registry().gauge(prefix + ".scenarios_per_s").set(count / wall_s);
    }
  }
  shards.merge_into(*sink);
  auto& reg = sink->registry();
  reg.counter("batch.runs").inc();
  reg.counter("batch.specs").inc(specs.size());
  reg.histogram("batch.run_ns").add(t1_ns - t0_ns);
  sink->phases().push_back(obs::PhaseEvent{"batch.run", 0, t0_ns, t1_ns});
  return out;
}

void BatchRunner::for_each(std::size_t n,
                           const std::function<void(std::size_t, Rng&)>& body) {
  const auto chunk_body = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      Rng rng(scenario_seed(config_.base_seed, i));
      body(i, rng);
    }
  };
  if (pool_ != nullptr) {
    util::parallel_for(*pool_, n, chunk_body);
  } else {
    util::parallel_for(n, 1, chunk_body);
  }
}

}  // namespace rt::exp
