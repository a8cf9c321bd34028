// Simulator event-engine throughput (google-benchmark, BENCH_sim.json).
//
// Every Fig. 3 / Table 1 point is a full EDF simulation, and the batch
// sweep engine runs thousands of them per invocation, so events/second of
// the engine's hot loop is the number that bounds the whole experiment
// pipeline. This suite runs the canonical Fig3-sweep workload (paper task
// set, benefit-driven response model, timely-count semantics) through
//
//   * BM_SimEngine      -- the zero-allocation engine, one reused instance
//                          (how exp::BatchRunner drives it);
//   * BM_SimReference   -- the seed engine, the pre-optimization
//                          baseline, kept as a test oracle in
//                          tests/support/reference_engine.cpp;
//
// and reports events_per_sec for both, plus the engine's speedup, peak
// pool slots, and steady-state allocations per event (counted with a
// replacement global operator new, the same way tests/obs/overhead_test
// counts hook allocations -- which is why this binary must not link
// benchmark_main).
//
// The Monte-Carlo replication suite compares K = 1024 replications of the
// same scenario through exp::BatchRunner (docs/ANALYSIS.md §12):
//
//   * BM_SerialLoopReplication -- K index-aligned specs, one full
//                                 decide -> clone -> simulate pipeline per
//                                 replication (the pre-batching path);
//   * BM_HoistedSerialLoop     -- ditto with the decision vector preset,
//                                 isolating the engine-only comparison;
//   * BM_BatchReplication      -- one spec with replications = K through
//                                 sim::BatchSimEngine's shared skeleton;
//                                 also records fast_share and
//                                 resync_windows from one untimed run.
//
// All three are normalized by the same work unit (K x the serial engine's
// event count for the scenario), so agg_events_per_sec ratios are exactly
// wall-time ratios; BM_BatchReplication additionally records them as
// speedup_vs_serial_loop / speedup_vs_hoisted_loop.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

#include "core/odm.hpp"
#include "core/workload.hpp"
#include "exp/batch.hpp"
#include "sim/batch_engine.hpp"
#include "sim/benefit_response.hpp"
#include "sim/engine.hpp"
#include "support/reference_engine.hpp"
#include "json_summary_gbench.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Out of line: once one of these is inlined, GCC pairs malloc() with
// `operator delete` or `operator new` with free() and warns
// -Wmismatched-new-delete, though each pair below matches.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace rt;

/// One Fig3-sweep scenario: the paper task set under the benefit-derived
/// response distribution with timely-count semantics
/// (examples/specs/fig3.json).
struct Workload {
  core::TaskSet tasks;
  core::DecisionVector decisions;
  std::unique_ptr<sim::BenefitDrivenResponse> server;
  sim::SimConfig cfg;
};

Workload make_fig3_workload(Duration horizon) {
  Rng rng(20140601);
  core::PaperSimConfig wl;
  wl.num_tasks = 12;
  Workload w;
  w.tasks = core::make_paper_simulation_taskset(rng, wl);
  w.decisions = core::decide_offloading(w.tasks).decisions;
  std::vector<core::BenefitFunction> gs;
  gs.reserve(w.tasks.size());
  for (const auto& t : w.tasks) gs.push_back(t.benefit);
  w.server = std::make_unique<sim::BenefitDrivenResponse>(std::move(gs));
  w.cfg.horizon = horizon;
  w.cfg.benefit_semantics = sim::BenefitSemantics::kTimelyCount;
  return w;
}

// Matches exp::SweepConfig::horizon, the duration every Fig. 3 point runs.
constexpr auto kHorizon = Duration::seconds(200);

void BM_SimEngine(benchmark::State& state) {
  Workload w = make_fig3_workload(kHorizon);
  sim::SimEngine engine;
  // Warm-up run: grows every buffer to steady state and yields the event
  // count one iteration processes.
  benchmark::DoNotOptimize(engine.run(w.tasks, w.decisions, *w.server, w.cfg));
  const double events_per_run =
      static_cast<double>(engine.stats().events_processed);

  std::size_t allocs = 0;
  for (auto _ : state) {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    benchmark::DoNotOptimize(engine.run(w.tasks, w.decisions, *w.server, w.cfg));
    allocs += g_allocations.load(std::memory_order_relaxed) - before;
  }
  const double iters = static_cast<double>(state.iterations());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(iters * events_per_run));
  state.counters["events_per_sec"] = benchmark::Counter(
      iters * events_per_run, benchmark::Counter::kIsRate);
  state.counters["allocs_per_event"] =
      static_cast<double>(allocs) / (iters * events_per_run);
  state.counters["pool_slots_peak"] =
      static_cast<double>(engine.stats().pool_slots_peak);
  state.counters["in_flight_peak"] =
      static_cast<double>(engine.stats().in_flight_peak);
}
BENCHMARK(BM_SimEngine)->Unit(benchmark::kMillisecond);

void BM_SimReference(benchmark::State& state) {
  Workload w = make_fig3_workload(kHorizon);
  // Both suites are normalized by the same work unit -- the optimized
  // engine's event count for this scenario -- so the events_per_sec ratio
  // is exactly the wall-time ratio. (The reference pops strictly more
  // events for the same schedule; crediting it with the engine's count is
  // the conservative direction.)
  sim::SimEngine probe;
  benchmark::DoNotOptimize(probe.run(w.tasks, w.decisions, *w.server, w.cfg));
  const double events_per_run =
      static_cast<double>(probe.stats().events_processed);

  std::size_t allocs = 0;
  for (auto _ : state) {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    benchmark::DoNotOptimize(
        sim::simulate_reference(w.tasks, w.decisions, *w.server, w.cfg));
    allocs += g_allocations.load(std::memory_order_relaxed) - before;
  }
  const double iters = static_cast<double>(state.iterations());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(iters * events_per_run));
  state.counters["events_per_sec"] = benchmark::Counter(
      iters * events_per_run, benchmark::Counter::kIsRate);
  state.counters["allocs_per_event"] =
      static_cast<double>(allocs) / (iters * events_per_run);
}
BENCHMARK(BM_SimReference)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Monte-Carlo replication: K = 1024 replications of the Fig3-sweep scenario.
// The horizon is shortened to 20 s so the serial baseline stays benchable;
// per-replication cost is horizon-linear for every contender, so the ratios
// match the 200 s setting.

constexpr std::size_t kReplications = 1024;
constexpr auto kReplicationHorizon = Duration::seconds(20);

/// Specs for one replicated scenario. `hoist_decisions` presets the
/// decision vector (what a hand-optimized serial loop would do);
/// `batched` collapses the K specs into one with replications = K.
std::vector<exp::ScenarioSpec> replication_specs(const Workload& w,
                                                 bool hoist_decisions,
                                                 bool batched) {
  exp::ScenarioSpec spec;
  spec.tasks = w.tasks;
  spec.server = std::shared_ptr<const server::ResponseModel>(w.server->clone());
  spec.sim = w.cfg;
  if (hoist_decisions) spec.decisions = w.decisions;
  if (batched) {
    spec.replications = kReplications;
    return {std::move(spec)};
  }
  return std::vector<exp::ScenarioSpec>(kReplications, spec);
}

/// The serial engine's event count for one replication at the replication
/// horizon: the common work unit all three contenders are normalized by.
double events_per_replication(const Workload& w) {
  static const double events = [&] {
    sim::SimEngine probe;
    (void)probe.run(w.tasks, w.decisions, *w.server, w.cfg);
    return static_cast<double>(probe.stats().events_processed);
  }();
  return events;
}

/// Shared timing core: runs `specs` through a serial BatchRunner per
/// iteration and reports the aggregate event rate.
double run_replication_bench(benchmark::State& state, const Workload& w,
                             const std::vector<exp::ScenarioSpec>& specs) {
  exp::BatchRunner runner({.jobs = 1, .base_seed = 42});
  (void)runner.run(specs);  // warm-up: engine pools reach steady state
  double elapsed_s = 0.0;   // google-benchmark keeps its clock private
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(runner.run(specs));
    elapsed_s += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                               t0)
                     .count();
  }
  const double iters = static_cast<double>(state.iterations());
  const double reps = iters * static_cast<double>(kReplications);
  const double events = reps * events_per_replication(w);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["agg_events_per_sec"] =
      benchmark::Counter(events, benchmark::Counter::kIsRate);
  state.counters["replications"] = static_cast<double>(kReplications);
  const double ms_per_rep = reps > 0.0 ? elapsed_s * 1e3 / reps : 0.0;
  state.counters["ms_per_replication"] = ms_per_rep;
  return ms_per_rep;
}

/// Lazily measured baselines shared with BM_BatchReplication's speedup
/// counters (google-benchmark runs suites independently, so the ratio must
/// be computed inside one process pass).
double& serial_loop_ms_per_rep() {
  static double v = 0.0;
  return v;
}
double& hoisted_loop_ms_per_rep() {
  static double v = 0.0;
  return v;
}

void BM_SerialLoopReplication(benchmark::State& state) {
  Workload w = make_fig3_workload(kReplicationHorizon);
  serial_loop_ms_per_rep() =
      run_replication_bench(state, w, replication_specs(w, false, false));
}
BENCHMARK(BM_SerialLoopReplication)->Unit(benchmark::kMillisecond);

void BM_HoistedSerialLoop(benchmark::State& state) {
  Workload w = make_fig3_workload(kReplicationHorizon);
  hoisted_loop_ms_per_rep() =
      run_replication_bench(state, w, replication_specs(w, true, false));
}
BENCHMARK(BM_HoistedSerialLoop)->Unit(benchmark::kMillisecond);

void BM_BatchReplication(benchmark::State& state) {
  Workload w = make_fig3_workload(kReplicationHorizon);
  const double batch_ms =
      run_replication_bench(state, w, replication_specs(w, false, true));
  if (batch_ms > 0.0 && serial_loop_ms_per_rep() > 0.0) {
    state.counters["speedup_vs_serial_loop"] =
        serial_loop_ms_per_rep() / batch_ms;
  }
  if (batch_ms > 0.0 && hoisted_loop_ms_per_rep() > 0.0) {
    state.counters["speedup_vs_hoisted_loop"] =
        hoisted_loop_ms_per_rep() / batch_ms;
  }
  // Where the replications went, from one extra run outside the timed
  // loop under the seed the runner gives scenario 0.
  sim::BatchSimEngine engine;
  sim::SimConfig cfg = w.cfg;
  cfg.seed = exp::scenario_seed(42, 0);
  (void)engine.run(w.tasks, w.decisions, *w.server, cfg, kReplications);
  const sim::BatchEngineStats& st = engine.stats();
  state.counters["fast_share"] = static_cast<double>(st.fast_replications) /
                                 static_cast<double>(kReplications);
  state.counters["resync_windows"] = static_cast<double>(st.resync_windows);
}
BENCHMARK(BM_BatchReplication)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return rtbench::run_with_json_summary(argc, argv, "BENCH_sim.json");
}
