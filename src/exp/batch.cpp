#include "exp/batch.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/sink.hpp"

namespace rt::exp {

namespace {

/// The worker count jobs == 0 stands for: one per hardware thread, or 1
/// when the runtime cannot tell.
unsigned default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

}  // namespace

std::uint64_t scenario_seed(std::uint64_t base_seed, std::size_t index) {
  // One shared derivation (util/rng): the same (base, index) pair yields
  // the same seed in every layer -- batch, sweep, and the spec grid.
  return derive_seed(base_seed, static_cast<std::uint64_t>(index));
}

BatchRunner::BatchRunner(BatchConfig config)
    : config_(config), jobs_(config.jobs == 0 ? default_jobs() : config.jobs) {}

ScenarioOutcome BatchRunner::run_one(const ScenarioSpec& spec,
                                     std::size_t index,
                                     obs::Sink* shard,
                                     Worker& worker) const {
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
      if (worker.batch == nullptr) {
        worker.batch = std::make_unique<sim::BatchSimEngine>();
      }
      sim::BatchSimEngine& batch = *worker.batch;
      sim::BatchResult res =
          batch.run(spec.tasks, out.decisions, *spec.server, cfg,
                     spec.replications, spec.profile);
      out.metrics = std::move(res.per_replication.front());
      out.aggregate = std::move(res.aggregate);
    } else {
      const std::unique_ptr<server::ResponseModel> srv = spec.server->clone();
      const sim::SimResult res =
          worker.engine.run(spec.tasks, out.decisions, *srv, cfg, spec.profile);
      out.metrics = res.metrics;
      out.aggregate.add(out.metrics);
      if (shard != nullptr && res.metrics.trace_truncated) {
        shard->registry().counter("batch.traces_truncated").inc();
      }
    }
  }
  return out;
}

std::vector<ScenarioOutcome> BatchRunner::run(
    const std::vector<ScenarioSpec>& specs, obs::Sink* sink) {
  std::vector<ScenarioOutcome> out(specs.size());
  const auto workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, specs.size()));
  if (workers_.size() < workers) workers_.resize(workers);
  if (sink == nullptr) {
    fan_out(specs.size(), workers, [&](unsigned w, std::size_t i) {
      out[i] = run_one(specs[i], i, nullptr, workers_[w]);
    });
    return out;
  }

  // One shard per worker, on the parent's timeline.
  std::vector<obs::Sink> shards(workers);
  for (obs::Sink& shard : shards) shard.set_origin(sink->origin());
  const std::int64_t t0_ns = sink->now_ns();
  fan_out(specs.size(), workers, [&](unsigned w, std::size_t i) {
    obs::Sink& shard = shards[w];
    obs::PhaseProbe probe(&shard, "scenario " + std::to_string(i),
                          &shard.registry().histogram("batch.scenario_ns"));
    out[i] = run_one(specs[i], i, &shard, workers_[w]);
    shard.registry().counter("batch.scenarios").inc();
  });
  const std::int64_t t1_ns = sink->now_ns();

  // Per-worker throughput, read from the shards before they are folded
  // together. Wall-clock telemetry only: not deterministic across runs.
  const double wall_s = static_cast<double>(t1_ns - t0_ns) / 1e9;
  for (unsigned w = 0; w < workers; ++w) {
    const obs::Counter* done = shards[w].registry().find_counter("batch.scenarios");
    const double count = done != nullptr ? static_cast<double>(done->value()) : 0.0;
    const std::string prefix = "batch.worker." + std::to_string(w);
    sink->registry().gauge(prefix + ".scenarios").set(count);
    if (wall_s > 0.0) {
      sink->registry().gauge(prefix + ".scenarios_per_s").set(count / wall_s);
    }
    sink->absorb(shards[w], w);
  }
  auto& reg = sink->registry();
  reg.counter("batch.runs").inc();
  reg.counter("batch.specs").inc(specs.size());
  reg.histogram("batch.run_ns").add(t1_ns - t0_ns);
  sink->phases().push_back(obs::PhaseEvent{"batch.run", 0, t0_ns, t1_ns});
  return out;
}

void BatchRunner::for_each(std::size_t n,
                           const std::function<void(std::size_t, Rng&)>& body) {
  const auto workers = static_cast<unsigned>(std::min<std::size_t>(jobs_, n));
  fan_out(n, workers, [&](unsigned, std::size_t i) {
    Rng rng(scenario_seed(config_.base_seed, i));
    body(i, rng);
  });
}

void BatchRunner::fan_out(
    std::size_t n, unsigned workers,
    const std::function<void(unsigned, std::size_t)>& body) const {
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(0, i);
    return;
  }
  // About four chunks per worker: enough to balance uneven scenarios,
  // few enough that the counter is rarely contended.
  const std::size_t step = std::max<std::size_t>(1, n / (std::size_t{workers} * 4));
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto keep_error = [&] {
    const std::scoped_lock lock(error_mutex);
    if (!first_error) first_error = std::current_exception();
    next.store(n);  // hand out no further chunks
  };
  const auto work = [&](unsigned w) {
    try {
      for (;;) {
        const std::size_t begin = next.fetch_add(step);
        if (begin >= n) return;
        const std::size_t end = std::min(n, begin + step);
        for (std::size_t i = begin; i < end; ++i) body(w, i);
      }
    } catch (...) {
      keep_error();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  try {
    for (unsigned w = 1; w < workers; ++w) threads.emplace_back(work, w);
  } catch (...) {
    keep_error();  // a thread could not start; the started ones drain out
  }
  work(0);
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace rt::exp
