// The BatchRunner's core promise: worker count is a pure performance knob.
// The same sweep on 1, 2, or 8 workers must produce bit-identical results
// (exact double equality, not tolerances), because every scenario draws its
// seed from its index and owns a private Rng + cloned ResponseModel.
//
// This file is the one the TSan build (RTOFFLOAD_SANITIZE=thread) is
// expected to exercise: it drives the runner's workers, the per-scenario
// cloning, and the disjoint result slots under real concurrency.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/decision.hpp"
#include "core/odm.hpp"
#include "core/workload.hpp"
#include "exp/batch.hpp"
#include "obs/sink.hpp"
#include "sim/batch_engine.hpp"
#include "sim/benefit_response.hpp"
#include "sim/simulator.hpp"
#include "spec/grid.hpp"
#include "support/compare.hpp"

namespace {

using namespace rt;

/// A small Figure 3 grid: the paper workload (seed 7, 10 tasks), errors
/// {-0.2, 0, 0.2} x both solvers, 5 s horizons.
constexpr std::string_view kSmallSweepDoc = R"json({
  "workload": {"type": "paper", "seed": 7, "num_tasks": 10},
  "odm": {"apply_task_weights": false},
  "server": {"type": "benefit-driven"},
  "sim": {"benefit_semantics": "timely-count", "horizon_ms": 5000},
  "sweep": {
    "axes": [
      {"path": "odm.estimation_error", "values": [-0.2, 0.0, 0.2]},
      {"path": "odm.solver", "values": ["dp-profits", "heu-oe"]}
    ]
  }
})json";

spec::BatchPlan small_sweep_plan() {
  return spec::plan_batch(spec::ScenarioDoc::parse_text(kSmallSweepDoc));
}

/// Runs the small grid on `jobs` workers, reporting into `sink` if given,
/// with `replications` Monte-Carlo replications per point.
std::vector<exp::ScenarioOutcome> run_small_sweep(unsigned jobs,
                                                  obs::Sink* sink = nullptr,
                                                  std::size_t replications = 1) {
  spec::BatchPlan plan = small_sweep_plan();
  plan.batch.jobs = jobs;
  for (exp::ScenarioSpec& spec : plan.specs) spec.replications = replications;
  return exp::BatchRunner(plan.batch).run(plan.specs, sink);
}

/// Replications per point of the replicated small grid: its x = -0.2
/// points send late draws, so the batch engines run resync windows.
constexpr std::size_t kSweepReplications = 8;

/// Bit-identical outcomes: decisions, claimed objective and every
/// SimMetrics field.
void expect_outcomes_equal(const exp::ScenarioOutcome& a,
                           const exp::ScenarioOutcome& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.odm.claimed_objective, b.odm.claimed_objective);
  EXPECT_TRUE(core::decisions_equal(a.decisions, b.decisions));
  EXPECT_TRUE(sim::metrics_equal(a.metrics, b.metrics));
}

/// Runs the small grid with `replications` per point on 1 and 8 workers,
/// each under a sink, and expects identical merged counters and value
/// histograms.
void expect_merged_counters_equal(std::size_t replications) {
  obs::Sink s1, s8;
  (void)run_small_sweep(1, &s1, replications);
  (void)run_small_sweep(8, &s8, replications);

  ASSERT_EQ(s1.registry().counters().size(), s8.registry().counters().size());
  for (const auto& [name, c] : s1.registry().counters()) {
    SCOPED_TRACE(name);
    const obs::Counter* other = s8.registry().find_counter(name);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(c.value(), other->value());
  }
  for (const auto& [name, h] : s1.registry().histograms()) {
    if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ns") == 0) {
      continue;  // wall-clock durations carry no determinism promise
    }
    SCOPED_TRACE(name);
    const obs::LogHistogram* other = s8.registry().find_histogram(name);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(h.count(), other->count());
    EXPECT_EQ(h.sum(), other->sum());
    for (std::size_t b = 0; b < obs::LogHistogram::kBuckets; ++b) {
      EXPECT_EQ(h.bucket_count(b), other->bucket_count(b));
    }
  }
}

TEST(ScenarioSeed, DeterministicAndDistinct) {
  EXPECT_EQ(exp::scenario_seed(1, 0), exp::scenario_seed(1, 0));
  EXPECT_EQ(exp::scenario_seed(99, 123), exp::scenario_seed(99, 123));

  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {std::uint64_t{1}, std::uint64_t{2}}) {
    for (std::size_t i = 0; i < 1000; ++i) {
      seen.insert(exp::scenario_seed(base, i));
    }
  }
  EXPECT_EQ(seen.size(), 2000u) << "seed collisions across indices/bases";
}

TEST(BatchDeterminism, SweepIdenticalAcrossWorkerCounts) {
  const std::vector<exp::ScenarioOutcome> r1 = run_small_sweep(1);
  const std::vector<exp::ScenarioOutcome> r2 = run_small_sweep(2);
  const std::vector<exp::ScenarioOutcome> r8 = run_small_sweep(8);

  ASSERT_EQ(r1.size(), 3u * 2u);
  ASSERT_EQ(r2.size(), r1.size());
  ASSERT_EQ(r8.size(), r1.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    SCOPED_TRACE(i);
    expect_outcomes_equal(r1[i], r2[i]);
    expect_outcomes_equal(r1[i], r8[i]);
  }

  // Each point also equals a fresh simulation of that point alone, so no
  // result depends on which point a worker's engine ran before it (the
  // points share their task set, so an engine reuses its release
  // schedule across them).
  const spec::BatchPlan plan = small_sweep_plan();
  ASSERT_EQ(plan.specs.size(), r1.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    SCOPED_TRACE(i);
    const exp::ScenarioSpec& spec = plan.specs[i];
    sim::SimConfig cfg = spec.sim;
    cfg.seed = exp::scenario_seed(plan.batch.base_seed, i);
    const std::unique_ptr<server::ResponseModel> srv = spec.server->clone();
    EXPECT_TRUE(sim::metrics_equal(
        r1[i].metrics,
        sim::simulate(spec.tasks, r1[i].decisions, *srv, cfg, spec.profile).metrics));
  }

  // The sweep must have produced real signal, or the equalities above are
  // vacuous.
  std::size_t offloaded = 0;
  double claimed_sum = 0.0, benefit_sum = 0.0;
  for (const exp::ScenarioOutcome& o : r1) {
    for (const core::Decision& d : o.decisions) offloaded += d.offloaded();
    claimed_sum += o.odm.claimed_objective;
    benefit_sum += o.metrics.total_benefit();
  }
  EXPECT_GT(offloaded, 0u);
  EXPECT_GT(claimed_sum, 0.0);
  EXPECT_GT(benefit_sum, 0.0);
}

TEST(BatchDeterminism, TelemetryDoesNotPerturbResults) {
  // Attaching a sink must be pure observation: the sweep's outcomes stay
  // bit-identical to a telemetry-free run, and a replicated sweep's batch
  // engines serve the same replications on the fast path either way.
  for (const std::size_t k : {std::size_t{1}, kSweepReplications}) {
    SCOPED_TRACE("replications " + std::to_string(k));
    const std::vector<exp::ScenarioOutcome> bare = run_small_sweep(2, nullptr, k);
    obs::Sink sink;
    const std::vector<exp::ScenarioOutcome> observed = run_small_sweep(2, &sink, k);

    ASSERT_EQ(observed.size(), bare.size());
    for (std::size_t i = 0; i < bare.size(); ++i) {
      SCOPED_TRACE(i);
      expect_outcomes_equal(observed[i], bare[i]);
      EXPECT_EQ(observed[i].aggregate.total_benefit.mean(),
                bare[i].aggregate.total_benefit.mean());
      EXPECT_EQ(observed[i].aggregate.total_benefit.stddev(),
                bare[i].aggregate.total_benefit.stddev());
    }

    // The merged counters must have recorded the sweep.
    obs::MetricRegistry& reg = sink.registry();
    EXPECT_EQ(reg.counter("batch.scenarios").value(), bare.size());
    EXPECT_GT(reg.counter("sim.events").value(), 0u);
    EXPECT_GT(reg.counter("odm.decisions").value(), 0u);
    EXPECT_GT(reg.histogram("mckp.items_pruned").count(), 0u);
    EXPECT_FALSE(sink.phases().empty());
    if (k > 1) {
      EXPECT_EQ(reg.counter("batch.fast_replications").value(), bare.size() * k);
      EXPECT_EQ(reg.counter("batch.fallback_replications").value(), 0u);
      EXPECT_GT(reg.counter("sim.batch.resync_windows").value(), 0u);
    }
  }
}

TEST(BatchDeterminism, MergedCountersIdenticalAcrossWorkerCounts) {
  // Counters and value histograms (not the *_ns wall-clock ones) are
  // integer sums over per-scenario work, so the merged totals must be
  // identical for every worker count, the batch engines' fast path and
  // resync windows included.
  for (const std::size_t k : {std::size_t{1}, kSweepReplications}) {
    SCOPED_TRACE("replications " + std::to_string(k));
    expect_merged_counters_equal(k);
  }
}

TEST(BatchDeterminism, ReplicatedSpecsIdenticalAcrossWorkerCounts) {
  // A spec with replications > 1 leases the batched engine inside the
  // worker; like everything else, the outcome (replication-0 metrics AND
  // the cross-replication aggregate) must be bit-identical for every
  // worker count, and a K = 1 spec must not change at all.
  Rng rng(7);
  core::PaperSimConfig wl;
  wl.num_tasks = 10;
  const core::TaskSet tasks = core::make_paper_simulation_taskset(rng, wl);
  std::vector<core::BenefitFunction> gs;
  for (const auto& t : tasks) gs.push_back(t.benefit);
  auto server = std::make_shared<sim::BenefitDrivenResponse>(std::move(gs));

  exp::ScenarioSpec spec;
  spec.tasks = tasks;
  spec.server = server;
  spec.sim.horizon = Duration::seconds(5);
  spec.sim.benefit_semantics = sim::BenefitSemantics::kTimelyCount;

  constexpr std::size_t kReps = 16;
  std::vector<exp::ScenarioSpec> specs(3, spec);
  specs[0].replications = kReps;
  specs[2].replications = kReps;  // specs[1] stays serial (K = 1)

  auto run_with = [&](unsigned jobs) {
    return exp::BatchRunner({.jobs = jobs, .base_seed = 5}).run(specs);
  };
  const std::vector<exp::ScenarioOutcome> o1 = run_with(1);
  const std::vector<exp::ScenarioOutcome> o4 = run_with(4);

  ASSERT_EQ(o1.size(), 3u);
  ASSERT_EQ(o4.size(), 3u);
  for (std::size_t i = 0; i < o1.size(); ++i) {
    SCOPED_TRACE(i);
    const std::size_t want = i == 1 ? 1u : kReps;
    EXPECT_EQ(o1[i].aggregate.replications, want);
    EXPECT_EQ(o4[i].aggregate.replications, want);
    // Bit-identical across worker counts: metrics and aggregate stats.
    EXPECT_EQ(o1[i].metrics.total_benefit(), o4[i].metrics.total_benefit());
    EXPECT_EQ(o1[i].metrics.total_deadline_misses(),
              o4[i].metrics.total_deadline_misses());
    EXPECT_EQ(o1[i].aggregate.total_benefit.mean(),
              o4[i].aggregate.total_benefit.mean());
    EXPECT_EQ(o1[i].aggregate.total_benefit.stddev(),
              o4[i].aggregate.total_benefit.stddev());
  }
  // Real signal, or the equalities above are vacuous.
  EXPECT_GT(o1[0].aggregate.total_benefit.mean(), 0.0);
  EXPECT_GT(o1[0].aggregate.total_benefit.stddev(), 0.0);
}

TEST(BatchDeterminism, ResyncWindowsIdenticalAcrossWorkerCounts) {
  // A K > 1 paper grid at x = -0.2: nearly every lane of the leased batch
  // engines leaves the skeleton and runs resync windows, inside the
  // workers and concurrently under 2 and 8 of them.
  constexpr std::string_view kDoc = R"json({
    "workload": {"type": "paper", "seed": 11, "num_tasks": 30},
    "odm": {"apply_task_weights": false, "estimation_error": -0.2},
    "server": {"type": "benefit-driven"},
    "sim": {"benefit_semantics": "timely-count", "horizon_ms": 3000,
            "replications": 12},
    "sweep": {"axes": [{"path": "workload.seed", "values": [11, 12, 13, 14]}]}
  })json";
  const spec::BatchPlan plan = spec::plan_batch(spec::ScenarioDoc::parse_text(kDoc));
  const auto run_with = [&](unsigned jobs) {
    exp::BatchConfig config = plan.batch;
    config.jobs = jobs;
    return exp::BatchRunner(config).run(plan.specs);
  };
  const std::vector<exp::ScenarioOutcome> o1 = run_with(1);
  for (const unsigned jobs : {2u, 8u}) {
    const std::vector<exp::ScenarioOutcome> on = run_with(jobs);
    ASSERT_EQ(on.size(), o1.size());
    for (std::size_t i = 0; i < o1.size(); ++i) {
      SCOPED_TRACE("jobs " + std::to_string(jobs) + " scenario " + std::to_string(i));
      expect_outcomes_equal(o1[i], on[i]);
      EXPECT_EQ(o1[i].aggregate.total_benefit.mean(),
                on[i].aggregate.total_benefit.mean());
      EXPECT_EQ(o1[i].aggregate.total_benefit.stddev(),
                on[i].aggregate.total_benefit.stddev());
    }
  }
  // The runner's engines ran windows: the same scenario straight through
  // BatchSimEngine does, and agrees with the runner.
  const exp::ScenarioSpec& spec = plan.specs[0];
  sim::SimConfig cfg = spec.sim;
  cfg.seed = exp::scenario_seed(plan.batch.base_seed, 0);
  sim::BatchSimEngine engine;
  const sim::BatchResult direct = engine.run(spec.tasks, o1[0].decisions, *spec.server,
                                             cfg, spec.replications, spec.profile);
  EXPECT_GT(engine.stats().resync_windows, 0u);
  EXPECT_EQ(engine.stats().fast_replications, spec.replications);
  EXPECT_EQ(direct.aggregate.total_benefit.mean(),
            o1[0].aggregate.total_benefit.mean());
}

TEST(BatchDeterminism, ForEachRngIsPerIndex) {
  // for_each hands each index an Rng seeded only by (base_seed, index):
  // the draws must not depend on worker count or execution order.
  exp::BatchConfig cfg1;
  cfg1.jobs = 1;
  exp::BatchConfig cfg8;
  cfg8.jobs = 8;

  constexpr std::size_t kN = 64;
  std::vector<double> draws1(kN), draws8(kN);
  exp::BatchRunner(cfg1).for_each(
      kN, [&](std::size_t i, Rng& rng) { draws1[i] = rng.uniform(); });
  exp::BatchRunner(cfg8).for_each(
      kN, [&](std::size_t i, Rng& rng) { draws8[i] = rng.uniform(); });

  EXPECT_EQ(draws1, draws8);
  EXPECT_GT(std::set<double>(draws1.begin(), draws1.end()).size(), kN / 2);
}

/// The process's thread count, from the Threads: line of /proc/self/status.
std::size_t process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  ADD_FAILURE() << "no Threads: line in /proc/self/status";
  return 0;
}

TEST(BatchRunnerEdges, ScenarioErrorPropagatesAndTheRunnerStaysUsable) {
  // The small grid twice over, with one spec's precomputed decisions one
  // short of its task set: the engine rejects it with invalid_argument.
  // run() must rethrow that after every worker stopped (no hang, no
  // terminate), and the same runner, whose worker engines saw the failed
  // run, must then reproduce a clean batch bit for bit.
  const spec::BatchPlan plan = small_sweep_plan();
  std::vector<exp::ScenarioSpec> bad = plan.specs;
  bad.insert(bad.end(), plan.specs.begin(), plan.specs.end());
  bad[5].decisions = core::all_local(bad[5].tasks.size() - 1);
  const std::vector<exp::ScenarioOutcome> want = run_small_sweep(1);

  for (const unsigned jobs : {1u, 8u}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    exp::BatchConfig config = plan.batch;
    config.jobs = jobs;
    exp::BatchRunner runner(config);
    EXPECT_THROW((void)runner.run(bad), std::invalid_argument);
    obs::Sink sink;
    EXPECT_THROW((void)runner.run(bad, &sink), std::invalid_argument);
    EXPECT_THROW(runner.for_each(16,
                                 [](std::size_t i, Rng&) {
                                   if (i == 9) throw std::invalid_argument("body");
                                 }),
                 std::invalid_argument);

    const std::vector<exp::ScenarioOutcome> again = runner.run(plan.specs);
    ASSERT_EQ(again.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE(i);
      expect_outcomes_equal(want[i], again[i]);
    }
  }
}

TEST(BatchRunnerEdges, ConstructionStartsNoThread) {
  // Workers are started per call, for the indices it has: a runner
  // configured for 64 workers costs nothing until it runs. (A thread
  // joined just before can linger in the count for a moment, never the
  // other way round, so the check is "no more than before".)
  const std::size_t before = process_threads();
  ASSERT_GT(before, 0u);
  const exp::BatchRunner runner({.jobs = 64});
  EXPECT_EQ(runner.jobs(), 64u);
  EXPECT_LE(process_threads(), before);
}

TEST(BatchRunnerEdges, ForEachStartsNoMoreWorkersThanIndices) {
  // for_each(2, ...) on a 64-worker runner runs 2 workers: the calling
  // thread and one started thread. A warm-up call on another runner
  // first, so a sanitizer's helper thread, started with a process's first
  // thread, is in the base.
  exp::BatchRunner({.jobs = 2}).for_each(2, [](std::size_t, Rng&) {});
  const std::size_t before = process_threads();

  exp::BatchRunner runner({.jobs = 64});
  std::mutex mutex;
  std::set<std::thread::id> ids;
  std::size_t most_threads = 0;
  runner.for_each(2, [&](std::size_t, Rng&) {
    const std::size_t now = process_threads();
    const std::scoped_lock lock(mutex);
    ids.insert(std::this_thread::get_id());
    most_threads = std::max(most_threads, now);
  });
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 2u);
  EXPECT_LE(most_threads, before + 1);
}

}  // namespace
