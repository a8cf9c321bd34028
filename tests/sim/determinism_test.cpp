// Determinism and conservation properties of the discrete-event engine.
//
// The evaluation story depends on bit-reproducible runs (EXPERIMENTS.md
// quotes exact numbers), so the engine must be a pure function of
// (tasks, decisions, server state, config).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/odm.hpp"
#include "core/workload.hpp"
#include "obs/sink.hpp"
#include "rt/health.hpp"
#include "server/bursty.hpp"
#include "server/faults.hpp"
#include "server/gpu_server.hpp"
#include "server/response_model.hpp"
#include "server/routing.hpp"
#include "sim/batch_engine.hpp"
#include "sim/benefit_response.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"
#include "support/compare.hpp"
#include "support/reference_engine.hpp"

namespace rt::sim {
namespace {

using namespace rt::literals;

struct Fixture {
  core::TaskSet tasks;
  core::DecisionVector decisions;
};

Fixture make_setup(std::uint64_t seed, std::size_t num_tasks = 12) {
  Rng rng(seed);
  core::PaperSimConfig wl;
  wl.num_tasks = num_tasks;
  Fixture s;
  s.tasks = core::make_paper_simulation_taskset(rng, wl);
  s.decisions = core::decide_offloading(s.tasks).decisions;
  return s;
}

TEST(Determinism, IdenticalConfigIdenticalRun) {
  const Fixture s = make_setup(5);
  SimConfig cfg;
  cfg.horizon = 20_s;
  cfg.seed = 77;
  cfg.exec_policy = ExecTimePolicy::kUniformFraction;
  cfg.release_policy = ReleasePolicy::kSporadic;

  auto srv_a = server::make_scenario_server(server::Scenario::kNotBusy, 3);
  auto srv_b = server::make_scenario_server(server::Scenario::kNotBusy, 3);
  const SimResult a = simulate(s.tasks, s.decisions, *srv_a, cfg);
  const SimResult b = simulate(s.tasks, s.decisions, *srv_b, cfg);
  EXPECT_TRUE(metrics_equal(a.metrics, b.metrics));
}

TEST(Determinism, SeedChangesStochasticRuns) {
  const Fixture s = make_setup(5);
  SimConfig cfg_a;
  cfg_a.horizon = 20_s;
  cfg_a.seed = 1;
  cfg_a.exec_policy = ExecTimePolicy::kUniformFraction;
  SimConfig cfg_b = cfg_a;
  cfg_b.seed = 2;
  auto srv_a = server::make_scenario_server(server::Scenario::kNotBusy, 3);
  auto srv_b = server::make_scenario_server(server::Scenario::kNotBusy, 3);
  const SimResult a = simulate(s.tasks, s.decisions, *srv_a, cfg_a);
  const SimResult b = simulate(s.tasks, s.decisions, *srv_b, cfg_b);
  EXPECT_FALSE(metrics_equal(a.metrics, b.metrics));
}

TEST(Conservation, CountersAreConsistent) {
  const Fixture s = make_setup(9);
  auto srv = server::make_scenario_server(server::Scenario::kBusy, 4);
  SimConfig cfg;
  cfg.horizon = 30_s;
  const SimResult res = simulate(s.tasks, s.decisions, *srv, cfg);
  for (std::size_t i = 0; i < s.tasks.size(); ++i) {
    const auto& m = res.metrics.per_task[i];
    EXPECT_LE(m.completed, m.released);
    if (s.decisions[i].offloaded()) {
      EXPECT_EQ(m.local_runs, 0u);
      EXPECT_LE(m.offload_attempts, m.released);
      // Each attempt resolves as timely, late-then-compensated, or
      // dropped-then-compensated; timely + compensations <= attempts.
      EXPECT_LE(m.timely_results + m.compensations, m.offload_attempts);
      EXPECT_LE(m.late_results, m.offload_attempts);
      // Every finite response was sampled at send time; a timely arrival
      // scheduled past the horizon is dropped, so observed >= timely + late.
      EXPECT_GE(m.observed_response_ms.count(),
                m.timely_results + m.late_results);
    } else {
      EXPECT_EQ(m.offload_attempts, 0u);
      EXPECT_EQ(m.local_runs, m.completed);
    }
  }
  // CPU can never be busy longer than the horizon.
  EXPECT_LE(res.metrics.cpu_busy_ns, cfg.horizon.ns());
}

TEST(Conservation, BenefitIsBoundedByReleasesTimesMaxValue) {
  const Fixture s = make_setup(11);
  auto srv = server::make_scenario_server(server::Scenario::kIdle, 4);
  SimConfig cfg;
  cfg.horizon = 10_s;
  const SimResult res = simulate(s.tasks, s.decisions, *srv, cfg);
  for (std::size_t i = 0; i < s.tasks.size(); ++i) {
    const auto& m = res.metrics.per_task[i];
    const double cap = static_cast<double>(m.released) * s.tasks[i].weight *
                       std::max(1.0, s.tasks[i].benefit.max_value());
    EXPECT_LE(m.accrued_benefit, cap + 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Differential: the zero-allocation engine (engine.hpp) must reproduce the
// seed engine (support/reference_engine.hpp) bit for bit -- every metric
// field and every trace event -- across the full scheduler x deadline x
// release grid.

TEST(Differential, EngineMatchesReferenceAcrossConfigGrid) {
  const SchedulerPolicy scheds[] = {SchedulerPolicy::kEdf,
                                    SchedulerPolicy::kFixedPriorityDm};
  const DeadlinePolicy deadlines[] = {DeadlinePolicy::kSplit,
                                      DeadlinePolicy::kNaive};
  const ReleasePolicy releases[] = {ReleasePolicy::kPeriodic,
                                    ReleasePolicy::kSporadic};
  SimEngine engine;  // one engine reused across the whole grid
  Rng meta(0xD1FFu);
  for (int round = 0; round < 3; ++round) {
    const Fixture s = make_setup(100 + static_cast<std::uint64_t>(round));
    for (const auto sched : scheds) {
      for (const auto dl : deadlines) {
        for (const auto rel : releases) {
          SimConfig cfg;
          cfg.horizon = Duration::seconds(5);
          cfg.seed = meta.next();
          cfg.exec_policy = ExecTimePolicy::kUniformFraction;
          cfg.exec_min_fraction = meta.uniform(0.3, 0.9);
          cfg.release_policy = rel;
          cfg.sporadic_slack = meta.uniform(0.05, 0.4);
          cfg.scheduler_policy = sched;
          cfg.deadline_policy = dl;
          cfg.trace_capacity = 50'000;
          const auto scenario =
              round % 2 == 0 ? server::Scenario::kNotBusy : server::Scenario::kBusy;
          auto srv_ref = server::make_scenario_server(scenario, 3);
          auto srv_opt = server::make_scenario_server(scenario, 3);
          const SimResult ref =
              simulate_reference(s.tasks, s.decisions, *srv_ref, cfg);
          const SimResult opt = engine.run(s.tasks, s.decisions, *srv_opt, cfg);
          const std::string label =
              "round=" + std::to_string(round) +
              " sched=" + (sched == SchedulerPolicy::kEdf ? "edf" : "fp") +
              " dl=" + (dl == DeadlinePolicy::kSplit ? "split" : "naive") +
              " rel=" + (rel == ReleasePolicy::kPeriodic ? "per" : "spor");
          EXPECT_TRUE(metrics_equal(ref.metrics, opt.metrics)) << label;
          EXPECT_TRUE(traces_equal(ref.trace, opt.trace)) << label;
        }
      }
    }
  }
}

TEST(Differential, SimulateWrapperMatchesReferenceWithTruncatedTrace) {
  // Tiny trace capacity exercises the truncation flag on both engines.
  const Fixture s = make_setup(21);
  SimConfig cfg;
  cfg.horizon = 10_s;
  cfg.seed = 99;
  cfg.exec_policy = ExecTimePolicy::kUniformFraction;
  cfg.trace_capacity = 64;
  auto srv_a = server::make_scenario_server(server::Scenario::kBusy, 2);
  auto srv_b = server::make_scenario_server(server::Scenario::kBusy, 2);
  const SimResult ref = simulate_reference(s.tasks, s.decisions, *srv_a, cfg);
  const SimResult opt = simulate(s.tasks, s.decisions, *srv_b, cfg);
  EXPECT_TRUE(ref.metrics.trace_truncated);
  EXPECT_TRUE(metrics_equal(ref.metrics, opt.metrics));
  EXPECT_TRUE(traces_equal(ref.trace, opt.trace));
}

// ---------------------------------------------------------------------------
// Batched differential: BatchSimEngine's replication r is defined as the
// serial engine run with seed = derive_seed(base_seed, r) against a fresh
// server clone. Every metric field must be bit-identical, on the skeleton
// fast path and on every fallback.

/// Runs the batch once and the serial engine K times (with derived seeds
/// and fresh clones) and compares every replication bit for bit. Returns
/// the engine stats for fast-path/fallback assertions.
BatchEngineStats expect_batch_matches_serial(
    const core::TaskSet& tasks, const core::DecisionVector& decisions,
    const server::ResponseModel& prototype, const SimConfig& cfg,
    std::size_t replications, const std::string& label) {
  BatchSimEngine batch;
  const BatchResult res =
      batch.run(tasks, decisions, prototype, cfg, replications);
  EXPECT_EQ(res.per_replication.size(), replications) << label;
  EXPECT_EQ(res.aggregate.replications, replications) << label;

  SimEngine serial;
  RunningStats manual_benefit;
  for (std::size_t r = 0; r < replications; ++r) {
    const std::unique_ptr<server::ResponseModel> srv = prototype.clone();
    SimConfig c = cfg;
    c.seed = derive_seed(cfg.seed, r);
    const SimResult s = serial.run(tasks, decisions, *srv, c);
    EXPECT_TRUE(metrics_equal(s.metrics, res.per_replication[r]))
        << label << " rep " << r;
    manual_benefit.add(s.metrics.total_benefit());
  }
  // The streaming aggregate folds the same values in the same order.
  EXPECT_EQ(res.aggregate.total_benefit.mean(), manual_benefit.mean()) << label;
  EXPECT_EQ(res.aggregate.total_benefit.stddev(), manual_benefit.stddev())
      << label;
  const BatchEngineStats st = batch.stats();
  EXPECT_EQ(st.fast_replications + st.fallback_replications, replications)
      << label;
  return st;
}

SimConfig batch_base_config() {
  SimConfig cfg;
  cfg.horizon = 5_s;
  cfg.seed = 20140601;
  cfg.benefit_semantics = BenefitSemantics::kTimelyCount;
  return cfg;  // EDF, always-WCET, periodic: skeleton-eligible
}

TEST(BatchedDifferential, FastPathMatchesSerialOnBenefitDrivenWorkload) {
  // Figure 3's setting: the response distribution is the benefit curve, so
  // G(R) = 1 makes every draw timely and the skeleton fast path carries
  // (nearly) every replication. This is the non-vacuousness guard: the
  // grid below would pass trivially if everything fell back.
  const Fixture s = make_setup(3);
  std::vector<core::BenefitFunction> gs;
  for (const auto& t : s.tasks) gs.push_back(t.benefit);
  const BenefitDrivenResponse server(std::move(gs));
  const BatchEngineStats st = expect_batch_matches_serial(
      s.tasks, s.decisions, server, batch_base_config(), 32, "benefit-driven");
  EXPECT_GT(st.fast_replications, 0u);
}

/// One batch run of a differential grid.
struct GridRun {
  const core::TaskSet& tasks;
  const core::DecisionVector& decisions;
  const server::ResponseModel& server;
  const SimConfig& cfg;
  std::size_t replications;
  std::string label;
};

/// Three skeleton-eligible configurations (the naive deadline policy and a
/// telemetry sink stay eligible) plus every precondition of the skeleton
/// gate: fixed-priority dispatch, sporadic releases, stochastic execution,
/// dispatch overhead, a nonzero post WCET and a trace. Each runs against
/// the scenario servers, whose late draws run resync windows, and against
/// the all-timely benefit-driven server. `visit` gets each run with the
/// fallback cause its configuration is counted under (null: eligible)
/// and whether its server is all timely.
using Cause = std::size_t BatchEngineStats::*;
void config_grid(
    const std::function<void(const GridRun&, Cause cause, bool all_timely)>& visit) {
  obs::Sink sink;
  struct Variant {
    const char* name;
    Cause cause;
    std::function<void(SimConfig&, core::TaskSet&)> mutate;
  };
  const Variant variants[] = {
      {"eligible", nullptr, [](SimConfig&, core::TaskSet&) {}},
      {"naive-deadline", nullptr,
       [](SimConfig& c, core::TaskSet&) {
         c.deadline_policy = DeadlinePolicy::kNaive;
       }},
      {"fp-dm", &BatchEngineStats::ineligible_scheduler,
       [](SimConfig& c, core::TaskSet&) {
         c.scheduler_policy = SchedulerPolicy::kFixedPriorityDm;
       }},
      {"sporadic", &BatchEngineStats::ineligible_release_policy,
       [](SimConfig& c, core::TaskSet&) {
         c.release_policy = ReleasePolicy::kSporadic;
       }},
      {"uniform-exec", &BatchEngineStats::ineligible_exec_policy,
       [](SimConfig& c, core::TaskSet&) {
         c.exec_policy = ExecTimePolicy::kUniformFraction;
       }},
      {"ctx-overhead", &BatchEngineStats::ineligible_context_switch,
       [](SimConfig& c, core::TaskSet&) { c.context_switch_overhead = 10_us; }},
      {"post-wcet", &BatchEngineStats::ineligible_post_wcet,
       [](SimConfig&, core::TaskSet& tasks) {
         for (auto& t : tasks) t.post_wcet = std::min(t.compensation_wcet, 100_us);
       }},
      {"trace", &BatchEngineStats::ineligible_trace,
       [](SimConfig& c, core::TaskSet&) { c.trace_capacity = 256; }},
      {"sink", nullptr,
       [&sink](SimConfig& c, core::TaskSet&) { c.sink = &sink; }},
  };
  const Fixture s = make_setup(101);
  std::vector<core::BenefitFunction> gs;
  for (const auto& t : s.tasks) gs.push_back(t.benefit);
  struct Server {
    const char* name;
    std::unique_ptr<server::ResponseModel> model;
    bool all_timely;
  };
  Server servers[] = {
      {"not-busy", server::make_scenario_server(server::Scenario::kNotBusy, 3),
       false},
      {"busy", server::make_scenario_server(server::Scenario::kBusy, 3), false},
      {"benefit-driven", std::make_unique<BenefitDrivenResponse>(std::move(gs)),
       true},
  };
  for (const Server& srv : servers) {
    for (const auto& v : variants) {
      SimConfig cfg = batch_base_config();
      cfg.horizon = 3_s;
      core::TaskSet tasks = s.tasks;
      v.mutate(cfg, tasks);
      visit({tasks, s.decisions, *srv.model, cfg, 6,
             std::string(v.name) + "/" + srv.name},
            v.cause, srv.all_timely);
    }
  }
}

TEST(BatchedDifferential, ScenarioServerMatchesAcrossConfigGrid) {
  // An ineligible configuration must fall back for every replication,
  // counted under its own cause; on the all-timely server an eligible one
  // must take the fast path.
  config_grid([](const GridRun& g, Cause cause, bool all_timely) {
    const BatchEngineStats st = expect_batch_matches_serial(
        g.tasks, g.decisions, g.server, g.cfg, g.replications, g.label);
    if (cause != nullptr) {
      EXPECT_EQ(st.fast_replications, 0u) << g.label;
      EXPECT_EQ(st.*cause, g.replications) << g.label;
    } else if (all_timely) {
      EXPECT_GT(st.fast_replications, 0u) << g.label;
    }
  });
}

TEST(EngineInternals, StatsReachTheSinkAsMetrics) {
  // Every sim.* counter is derived from SimMetrics: sim.events is the
  // engine's event count, which is one event per release, sub-job
  // completion and offload resolution. So K serial runs under a sink and
  // one batch run of the same K replications under another, fast path or
  // not, write the same counters, besides the batch run's split.
  config_grid([](const GridRun& g, Cause, bool) {
    obs::Sink serial_sink;
    SimEngine serial;
    for (std::size_t r = 0; r < g.replications; ++r) {
      obs::Sink run_sink;
      const std::unique_ptr<server::ResponseModel> srv = g.server.clone();
      SimConfig c = g.cfg;
      c.seed = derive_seed(g.cfg.seed, r);
      c.sink = &run_sink;
      const SimResult res = serial.run(g.tasks, g.decisions, *srv, c);
      const std::uint64_t events = serial.stats().events_processed;
      EXPECT_EQ(run_sink.registry().counter("sim.events").value(), events)
          << g.label << " rep " << r;
      EXPECT_EQ(res.metrics.total_events(), events) << g.label << " rep " << r;
      serial_sink.absorb(run_sink, 0);
    }
    obs::Sink batch_sink;
    SimConfig c = g.cfg;
    c.sink = &batch_sink;
    (void)BatchSimEngine().run(g.tasks, g.decisions, g.server, c, g.replications);
    const auto& want = serial_sink.registry().counters();
    const auto split = [](const std::string& name) {
      return name.starts_with("batch.") || name.starts_with("sim.batch.");
    };
    ASSERT_EQ(std::ranges::count_if(batch_sink.registry().counters(),
                                    [&](const auto& kv) { return !split(kv.first); }),
              std::ranges::ssize(want))
        << g.label;
    for (const auto& [name, counter] : want) {
      const obs::Counter* other = batch_sink.registry().find_counter(name);
      ASSERT_NE(other, nullptr) << g.label << " " << name;
      EXPECT_EQ(other->value(), counter.value()) << g.label << " " << name;
    }
  });
}

TEST(BatchedDifferential, ComposedFaultRoutingBurstyStackMatches) {
  // Stateful wrapper stack: faults(routing(bursty, benefit-driven)). The
  // fault script's drop clause makes the stack stateful (its own RNG), so
  // the batch draws sequentially per replication; the slowdown window
  // pushes responses past R mid-run, exercising resync windows.
  const Fixture s = make_setup(7);
  std::vector<core::BenefitFunction> gs;
  for (const auto& t : s.tasks) gs.push_back(t.benefit);

  server::BurstyConfig bursty;
  bursty.mean_calm_duration = 500_ms;
  bursty.mean_burst_duration = 200_ms;
  bursty.calm = std::make_unique<server::ShiftedLognormalResponse>(
      1_ms, /*mu=*/0.0, /*sigma=*/0.4);
  bursty.burst = std::make_unique<server::ShiftedLognormalResponse>(
      8_ms, /*mu=*/1.2, /*sigma=*/0.6);

  std::vector<std::unique_ptr<server::ResponseModel>> routes;
  routes.push_back(
      std::make_unique<server::BurstyResponse>(std::move(bursty), 0xB0B));
  routes.push_back(std::make_unique<BenefitDrivenResponse>(std::move(gs)));
  std::vector<std::size_t> route_of_stream;
  for (std::size_t i = 0; i < s.tasks.size(); ++i) {
    route_of_stream.push_back(i % 2);
  }

  server::FaultScript script;
  script.seed = 0xFA11;
  server::FaultClause slow;
  slow.kind = server::FaultKind::kSlowdown;
  slow.start = TimePoint::zero() + 1_s;
  slow.end = TimePoint::zero() + 2_s;
  slow.factor = 1.5;
  server::FaultClause drop = slow;
  drop.kind = server::FaultKind::kDropBurst;
  drop.drop_probability = 0.1;
  script.clauses = {slow, drop};

  const server::FaultInjector server(
      std::make_unique<server::RoutingResponse>(std::move(routes),
                                                std::move(route_of_stream)),
      script);
  SimConfig cfg = batch_base_config();
  cfg.horizon = 3_s;
  expect_batch_matches_serial(s.tasks, s.decisions, server, cfg, 8,
                              "fault-routing-bursty");
}

TEST(BatchedDifferential, AdaptiveControllerPathMatchesSerial) {
  // A configured ModeController routes every replication through the
  // serial engine; begin_run re-arms it per replication on both sides, so
  // one controller instance serves the batch and the serial loop alike.
  const Fixture s = make_setup(13);
  std::vector<core::BenefitFunction> gs;
  for (const auto& t : s.tasks) gs.push_back(t.benefit);
  const BenefitDrivenResponse server(std::move(gs));

  core::OdmConfig pessimistic;
  pessimistic.estimation_error = 1.0;
  health::ModeControllerConfig mc;
  mc.health.window = 32;
  mc.health.min_samples = 8;
  mc.health.degrade_below = 0.3;
  mc.health.recover_above = 0.5;
  mc.degraded = core::decide_offloading(s.tasks, pessimistic).decisions;
  health::ModeController controller(mc);

  SimConfig cfg = batch_base_config();
  cfg.controller = &controller;
  const BatchEngineStats st = expect_batch_matches_serial(
      s.tasks, s.decisions, server, cfg, 4, "adaptive");
  EXPECT_EQ(st.fast_replications, 0u);
  EXPECT_EQ(st.fallback_replications, 4u);
  EXPECT_EQ(st.ineligible_controller, 4u);
}

// ---------------------------------------------------------------------------
// Horizon cuts. A job still holding the CPU at the horizon is charged up to
// it on every engine; the grids above run whole seconds, where the cut
// rarely lands mid-slice. Here the horizons are arbitrary nanosecond
// instants.

TEST(Differential, BusyTimeRunsToTheHorizonOnEveryEngine) {
  // L runs from 1 ms to past the horizon; O's setup (0-1 ms), its 2 ms
  // reply and zero-length post leave the CPU no idle instant, and O's
  // timer (51 ms) is elided by the timely reply. The last events pop at
  // 3 ms (SimEngine and the batch skeleton) and 51 ms (the reference, which
  // still queues the timer), but the CPU is busy for all 100 ms.
  core::Task local = core::make_simple_task("L", 1_s, 200_ms, 1_ms, 200_ms);
  core::Task off = core::make_simple_task("O", 100_ms, 10_ms, 1_ms, 10_ms);
  off.benefit = core::BenefitFunction({{0_ms, 1.0}, {50_ms, 2.0}});
  const core::TaskSet tasks{local, off};
  const core::DecisionVector decisions{core::Decision::local(),
                                       core::Decision::offload(1, 50_ms)};
  const server::FixedResponse srv(2_ms);
  SimConfig cfg;
  cfg.horizon = 100_ms;

  server::FixedResponse srv_ref(2_ms);
  const SimResult ref = simulate_reference(tasks, decisions, srv_ref, cfg);
  server::FixedResponse srv_opt(2_ms);
  const SimResult opt = SimEngine().run(tasks, decisions, srv_opt, cfg);
  BatchSimEngine batch;
  const BatchResult bat = batch.run(tasks, decisions, srv, cfg, 1);
  EXPECT_EQ(batch.stats().fast_replications, 1u);
  EXPECT_EQ(ref.metrics.per_task[1].timely_results, 1u);
  EXPECT_EQ(ref.metrics.cpu_busy_ns, (100_ms).ns());
  EXPECT_EQ(opt.metrics.cpu_busy_ns, (100_ms).ns());
  EXPECT_EQ(bat.per_replication[0].cpu_busy_ns, (100_ms).ns());
}

TEST(Differential, HorizonCutsMidSliceMatchAcrossEngines) {
  // 30 random cut instants in [0.3 s, 5 s), each applied to the 12- and
  // 30-task paper sets and a preemption-heavy pair under both dispatch
  // policies. Always-WCET periodic runs keep the EDF cases on the batch
  // engine's skeleton path; the fixed-priority ones take its serial
  // fallback.
  const Fixture paper12 = make_setup(41);
  const Fixture paper30 = make_setup(43, 30);
  const Fixture pair{{core::make_simple_task("short", 2_ms, 1_ms, 1_ms, 1_ms),
                      core::make_simple_task("long", 1000_ms, 400_ms, 1_ms, 1_ms)},
                     core::all_local(2)};
  const std::pair<const char*, const Fixture*> sets[] = {
      {"paper12", &paper12}, {"paper30", &paper30}, {"pair", &pair}};
  constexpr std::size_t kReplications = 4;

  SimEngine engine;
  BatchSimEngine batch;
  std::uint64_t fast = 0;
  Rng meta(0xC07u);
  for (int cut = 0; cut < 30; ++cut) {
    const Duration horizon =
        Duration::nanoseconds(meta.uniform_int((300_ms).ns(), (5_s).ns() - 1));
    for (const auto& [name, set] : sets) {
      const Fixture& s = *set;
      std::vector<core::BenefitFunction> gs;
      for (const auto& t : s.tasks) gs.push_back(t.benefit);
      const BenefitDrivenResponse server(std::move(gs));
      for (const auto sched : {SchedulerPolicy::kEdf,
                               SchedulerPolicy::kFixedPriorityDm}) {
        SimConfig cfg;
        cfg.horizon = horizon;
        cfg.seed = meta.next();
        cfg.scheduler_policy = sched;
        const std::string label =
            std::string(name) + " H=" + std::to_string(horizon.ns()) + "ns " +
            (sched == SchedulerPolicy::kEdf ? "edf" : "fp");

        SimConfig traced = cfg;
        traced.trace_capacity = 200'000;
        auto srv_ref = server.clone();
        auto srv_opt = server.clone();
        const SimResult ref =
            simulate_reference(s.tasks, s.decisions, *srv_ref, traced);
        const SimResult opt = engine.run(s.tasks, s.decisions, *srv_opt, traced);
        ASSERT_FALSE(ref.metrics.trace_truncated) << label;
        EXPECT_TRUE(metrics_equal(ref.metrics, opt.metrics)) << label;
        EXPECT_TRUE(traces_equal(ref.trace, opt.trace)) << label;

        const BatchResult bat =
            batch.run(s.tasks, s.decisions, server, cfg, kReplications);
        fast += batch.stats().fast_replications;
        for (std::size_t r = 0; r < kReplications; ++r) {
          SimConfig c = cfg;
          c.seed = derive_seed(cfg.seed, r);
          auto srv_r = server.clone();
          const SimResult ref_r =
              simulate_reference(s.tasks, s.decisions, *srv_r, c);
          EXPECT_TRUE(metrics_equal(ref_r.metrics, bat.per_replication[r]))
              << label << " rep " << r;
        }
      }
    }
  }
  EXPECT_GT(fast, 0u) << "no replication took the skeleton path";
}

/// The std::invalid_argument message `run` throws, or "" if none.
std::string invalid_argument_of(const std::function<void()>& run) {
  try {
    run();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(BatchedDifferential, InvalidInputThrowsTheSerialMessagesOnBothPaths) {
  // The batch engine checks the arity itself and leaves every other check
  // to the protocol core; an eligible configuration and an ineligible one
  // (fixed priority) must both reject bad input as the serial engine does.
  const Fixture s = make_setup(3);
  const server::FixedResponse server(1_ms);
  std::size_t offloaded = 0;
  while (!s.decisions[offloaded].offloaded()) ++offloaded;
  struct Bad {
    std::string what;
    core::TaskSet tasks;
    core::DecisionVector decisions;
  };
  std::vector<Bad> bad;
  bad.push_back({"arity", s.tasks,
                 core::DecisionVector(s.decisions.begin(), s.decisions.end() - 1)});
  bad.push_back({"level", s.tasks, s.decisions});
  core::Task& leveled = bad.back().tasks[offloaded];
  leveled.setup_wcet_per_level.assign(leveled.benefit.size(), leveled.setup_wcet);
  bad.back().decisions[offloaded].level = leveled.benefit.size();
  bad.push_back({"R >= D", s.tasks, s.decisions});
  bad.back().decisions[offloaded].response_time = s.tasks[offloaded].deadline;
  for (const bool eligible : {true, false}) {
    SimConfig cfg = batch_base_config();
    if (!eligible) cfg.scheduler_policy = SchedulerPolicy::kFixedPriorityDm;
    for (const Bad& b : bad) {
      const std::string label = b.what + (eligible ? " eligible" : " ineligible");
      const std::string serial = invalid_argument_of([&] {
        SimEngine engine;
        server::FixedResponse srv(1_ms);
        (void)engine.run(b.tasks, b.decisions, srv, cfg);
      });
      const std::string batch = invalid_argument_of([&] {
        BatchSimEngine engine;
        (void)engine.run(b.tasks, b.decisions, server, cfg, 4);
      });
      EXPECT_EQ(serial.rfind("simulate: ", 0), 0u) << label << ": " << serial;
      EXPECT_EQ(batch, serial) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Resync windows: a lane that leaves the skeleton's path re-runs the
// protocol core between two idle instants and rejoins the column loop.

/// A paper set decided under estimation error x against its own benefit
/// curves as the server. With `local_value`, every curve is lifted so that
/// G(0) > 0: a compensated job then earns benefit too, between the timely
/// ones of its task.
struct PaperCase {
  core::TaskSet tasks;
  core::DecisionVector decisions;
  std::unique_ptr<server::ResponseModel> server;
};

PaperCase paper_case(std::uint64_t seed, int num_tasks, double x,
                     bool local_value) {
  Rng rng(seed);
  core::PaperSimConfig wl;
  wl.num_tasks = num_tasks;
  PaperCase c;
  c.tasks = core::make_paper_simulation_taskset(rng, wl);
  std::vector<core::BenefitFunction> gs;
  for (auto& t : c.tasks) {
    gs.push_back(t.benefit);
    if (local_value) {
      std::vector<core::BenefitPoint> points = t.benefit.points();
      for (auto& p : points) p.value = 0.1 + 0.9 * p.value;
      t.benefit = core::BenefitFunction(std::move(points));
    }
  }
  core::OdmConfig odm;
  odm.estimation_error = x;
  c.decisions = core::decide_offloading(c.tasks, odm).decisions;
  c.server = std::make_unique<BenefitDrivenResponse>(std::move(gs));
  return c;
}

/// Holds every replication to the serial engine and the first and last
/// to the reference engine; returns the windows the batch ran.
std::uint64_t expect_windows_match(const core::TaskSet& tasks,
                                   const core::DecisionVector& decisions,
                                   const server::ResponseModel& prototype,
                                   const SimConfig& cfg, std::size_t replications,
                                   const std::string& label) {
  BatchSimEngine batch;
  const BatchResult res = batch.run(tasks, decisions, prototype, cfg, replications);
  // Served by the skeleton, unless it puts a completion and a release on
  // one nanosecond (the tie precheck).
  EXPECT_EQ(batch.stats().fast_replications + batch.stats().ineligible_ties,
            replications)
      << label;
  SimEngine serial;
  for (std::size_t r = 0; r < replications; ++r) {
    SimConfig c = cfg;
    c.seed = derive_seed(cfg.seed, r);
    const std::unique_ptr<server::ResponseModel> srv = prototype.clone();
    const SimResult s = serial.run(tasks, decisions, *srv, c);
    const std::string at = label + " rep " + std::to_string(r);
    EXPECT_TRUE(metrics_equal(s.metrics, res.per_replication[r])) << at;
    if (r == 0 || r + 1 == replications) {
      const std::unique_ptr<server::ResponseModel> again = prototype.clone();
      EXPECT_TRUE(metrics_equal(
          simulate_reference(tasks, decisions, *again, c).metrics,
          res.per_replication[r]))
          << at << " (reference)";
    }
  }
  return batch.stats().resync_windows;
}

/// x < 0 admits windows R shorter than the curves the server draws from,
/// so responses come late; at x >= 0 only the curves' tails (G below 1)
/// fail to answer; microsecond-lattice draws also put arrivals on pops.
/// Horizons cut anywhere to the nanosecond, and K = 130 crosses a 128-lane
/// block. The last two runs lift every curve to G(0) > 0 (`lifted`).
void window_grid(const std::function<void(const GridRun&, bool lifted)>& visit) {
  Rng pick(0x5E5C);
  const std::size_t reps[] = {1, 4, 130};
  std::size_t k = 0;
  for (int round = 0; round < 3; ++round) {
    for (const int n : {12, 30}) {
      for (const double x : {-0.4, -0.2, -0.1, 0.0, 0.2}) {
        for (const BenefitSemantics sem :
             {BenefitSemantics::kTimelyCount, BenefitSemantics::kQualityValue}) {
          const PaperCase pc = paper_case(pick.next(), n, x, false);
          SimConfig cfg = batch_base_config();
          cfg.benefit_semantics = sem;
          cfg.seed = pick.next();
          cfg.horizon =
              Duration::nanoseconds(pick.uniform_int(300'000'000, 5'000'000'000));
          const std::size_t replications = reps[k++ % 3];
          visit({pc.tasks, pc.decisions, *pc.server, cfg, replications,
                 "n=" + std::to_string(n) + " x=" + std::to_string(x) +
                     " K=" + std::to_string(replications) + " H=" +
                     std::to_string(cfg.horizon.ns()) +
                     (sem == BenefitSemantics::kTimelyCount ? " count" : " quality")},
                false);
        }
      }
    }
  }
  for (const double x : {-0.4, -0.1}) {
    const PaperCase pc = paper_case(31, 30, x, true);
    SimConfig cfg = batch_base_config();
    cfg.benefit_semantics = BenefitSemantics::kQualityValue;
    cfg.horizon = Duration::nanoseconds(4'321'987'654);
    visit({pc.tasks, pc.decisions, *pc.server, cfg, 130,
           "G(0) > 0 x=" + std::to_string(x)},
          true);
  }
}

TEST(BatchedDifferential, ResyncWindowsMatchSerialOverHorizonsAndPerturbations) {
  std::uint64_t windows = 0;
  window_grid([&](const GridRun& g, bool lifted) {
    const std::uint64_t w = expect_windows_match(g.tasks, g.decisions, g.server,
                                                 g.cfg, g.replications, g.label);
    if (lifted) {
      EXPECT_GT(w, 0u) << g.label;
    }
    windows += w;
  });
  EXPECT_GT(windows, 0u);
}

TEST(BatchedDifferential, PinnedFastPathTotals) {
  // The fast path's deterministic counts over the two grids above: a
  // change that moves replications to the serial engine, or that opens
  // more or fewer windows, fails here even when every result still
  // matches.
  std::uint64_t fast = 0;
  std::uint64_t windows = 0;
  BatchSimEngine batch;
  const auto add = [&](const GridRun& g) {
    (void)batch.run(g.tasks, g.decisions, g.server, g.cfg, g.replications);
    fast += batch.stats().fast_replications;
    windows += batch.stats().resync_windows;
  };
  config_grid([&](const GridRun& g, Cause, bool) { add(g); });
  window_grid([&](const GridRun& g, bool) { add(g); });
  EXPECT_EQ(fast, 3'014u);
  EXPECT_EQ(windows, 10'808u);
}

TEST(BatchedDifferential, StatefulModelRunsWindowsOneLaneAtATime) {
  // A drop burst gives the fault injector its own Rng, so the model is
  // stateful and the batch draws one lane a block. The window draws the
  // lane's later sends in the serial order, so the model's state evolves
  // exactly as in the serial run.
  const PaperCase pc = paper_case(5, 30, -0.1, false);
  server::FaultScript script;
  script.seed = 0xD0;
  server::FaultClause drop;
  drop.kind = server::FaultKind::kDropBurst;
  drop.start = TimePoint::zero() + 500_ms;
  drop.end = TimePoint::zero() + 1500_ms;
  drop.drop_probability = 0.3;
  script.clauses = {drop};
  const server::FaultInjector server(pc.server->clone(), script);
  ASSERT_FALSE(server.is_stateless());
  SimConfig cfg = batch_base_config();
  cfg.horizon = Duration::nanoseconds(2'718'281'828);
  EXPECT_GT(expect_windows_match(pc.tasks, pc.decisions, server, cfg, 6, "stateful"),
            0u);
}

/// Stateless: every arrival lands on an instant where the batch engine's
/// outcome table may put an interval boundary. Three draws in four arrive
/// at the next release of a task picked at random (every task releases at
/// the multiples of its period); the rest at the sending job's deadline,
/// or, once that has passed, at the last instant before the horizon. An
/// arrival on a boundary belongs to the interval that the boundary ends.
class BoundaryAlignedResponse final : public server::ResponseModel {
 public:
  BoundaryAlignedResponse(const core::TaskSet& tasks, Duration horizon)
      : horizon_ns_(horizon.ns()) {
    for (const auto& t : tasks) {
      periods_ns_.push_back(t.period.ns());
      deadlines_ns_.push_back(t.deadline.ns());
    }
  }
  Duration sample(const server::Request& req, Rng& rng) override {
    const std::int64_t send = req.send_time.ns();
    const std::uint64_t draw = rng.next();
    std::int64_t at = horizon_ns_ - 1;
    if (draw % 4 != 0) {
      const std::int64_t period = periods_ns_[(draw / 4) % periods_ns_.size()];
      at = (send / period + 1) * period;
    } else {
      const std::int64_t period = periods_ns_[req.stream_id];
      const std::int64_t deadline = send / period * period + deadlines_ns_[req.stream_id];
      if (deadline > send) at = deadline;
    }
    return Duration::nanoseconds(at - send);
  }
  bool is_stateless() const override { return true; }
  std::unique_ptr<server::ResponseModel> clone() const override {
    return std::make_unique<BoundaryAlignedResponse>(*this);
  }

 private:
  std::vector<std::int64_t> periods_ns_;
  std::vector<std::int64_t> deadlines_ns_;
  std::int64_t horizon_ns_;
};

TEST(BatchedDifferential, BoundaryAlignedArrivalsMatchSerial) {
  // Arrivals exactly on releases, deadlines and the horizon's last instant:
  // the nanoseconds where an off-by-one in the interval count would move a
  // post into the interval after the pop.
  std::size_t fast = 0;
  for (const std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{11}}) {
    for (const int n : {12, 30}) {
      for (const double x : {-0.2, 0.0, 0.2}) {
        for (const BenefitSemantics sem :
             {BenefitSemantics::kTimelyCount, BenefitSemantics::kQualityValue}) {
          const PaperCase pc = paper_case(seed, n, x, sem == BenefitSemantics::kQualityValue);
          SimConfig cfg = batch_base_config();
          cfg.benefit_semantics = sem;
          cfg.horizon = 2_s;
          const BoundaryAlignedResponse server(pc.tasks, cfg.horizon);
          fast += expect_batch_matches_serial(
                      pc.tasks, pc.decisions, server, cfg, 8,
                      "aligned seed=" + std::to_string(seed) + " n=" +
                          std::to_string(n) + " x=" + std::to_string(x))
                      .fast_replications;
        }
      }
    }
  }
  EXPECT_GT(fast, 0u);
}

TEST(BatchedDifferential, SingleReplicationEqualsPlainSerialRun) {
  // K = 1 must reduce to exactly today's pipeline: one serial-equivalent
  // run under derive_seed(seed, 0).
  const Fixture s = make_setup(17);
  const auto server = server::make_scenario_server(server::Scenario::kIdle, 2);
  expect_batch_matches_serial(s.tasks, s.decisions, *server,
                              batch_base_config(), 1, "single");
}

}  // namespace
}  // namespace rt::sim
