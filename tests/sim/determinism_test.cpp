// Determinism and conservation properties of the discrete-event engine.
//
// The evaluation story depends on bit-reproducible runs (EXPERIMENTS.md
// quotes exact numbers), so the engine must be a pure function of
// (tasks, decisions, server state, config).

#include <gtest/gtest.h>

#include "core/odm.hpp"
#include "core/workload.hpp"
#include "rt/health.hpp"
#include "server/bursty.hpp"
#include "server/faults.hpp"
#include "server/gpu_server.hpp"
#include "server/response_model.hpp"
#include "server/routing.hpp"
#include "sim/batch_engine.hpp"
#include "sim/benefit_response.hpp"
#include "sim/engine.hpp"
#include "sim/reference_engine.hpp"
#include "sim/simulator.hpp"

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

bool metrics_equal(const SimMetrics& a, const SimMetrics& b) {
  if (a.per_task.size() != b.per_task.size()) return false;
  if (a.cpu_busy_ns != b.cpu_busy_ns) return false;
  for (std::size_t i = 0; i < a.per_task.size(); ++i) {
    const auto& x = a.per_task[i];
    const auto& y = b.per_task[i];
    if (x.released != y.released || x.completed != y.completed ||
        x.deadline_misses != y.deadline_misses ||
        x.timely_results != y.timely_results ||
        x.compensations != y.compensations ||
        x.late_results != y.late_results ||
        x.accrued_benefit != y.accrued_benefit) {
      return false;
    }
  }
  return true;
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
// seed engine (reference_engine.hpp) bit for bit -- every metric field and
// every trace event -- across the full scheduler x deadline x release grid.

void expect_bit_identical(const SimResult& ref, const SimResult& opt,
                          const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(ref.metrics.per_task.size(), opt.metrics.per_task.size());
  EXPECT_EQ(ref.metrics.cpu_busy_ns, opt.metrics.cpu_busy_ns);
  EXPECT_EQ(ref.metrics.context_switches, opt.metrics.context_switches);
  EXPECT_EQ(ref.metrics.trace_truncated, opt.metrics.trace_truncated);
  EXPECT_EQ(ref.metrics.end_time.ns(), opt.metrics.end_time.ns());
  for (std::size_t i = 0; i < ref.metrics.per_task.size(); ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    const auto& x = ref.metrics.per_task[i];
    const auto& y = opt.metrics.per_task[i];
    EXPECT_EQ(x.released, y.released);
    EXPECT_EQ(x.completed, y.completed);
    EXPECT_EQ(x.deadline_misses, y.deadline_misses);
    EXPECT_EQ(x.local_runs, y.local_runs);
    EXPECT_EQ(x.offload_attempts, y.offload_attempts);
    EXPECT_EQ(x.timely_results, y.timely_results);
    EXPECT_EQ(x.compensations, y.compensations);
    EXPECT_EQ(x.late_results, y.late_results);
    // Benefit and response stats accumulate in the same order, so they are
    // bit-equal, not merely close.
    EXPECT_EQ(x.accrued_benefit, y.accrued_benefit);
    EXPECT_EQ(x.observed_response_ms.count(), y.observed_response_ms.count());
    EXPECT_EQ(x.observed_response_ms.sum(), y.observed_response_ms.sum());
    EXPECT_EQ(x.observed_response_ms.mean(), y.observed_response_ms.mean());
    EXPECT_EQ(x.observed_response_ms.min(), y.observed_response_ms.min());
    EXPECT_EQ(x.observed_response_ms.max(), y.observed_response_ms.max());
  }
  const auto& re = ref.trace.events();
  const auto& oe = opt.trace.events();
  ASSERT_EQ(re.size(), oe.size());
  for (std::size_t i = 0; i < re.size(); ++i) {
    EXPECT_EQ(re[i].time.ns(), oe[i].time.ns()) << "trace event " << i;
    EXPECT_EQ(re[i].kind, oe[i].kind) << "trace event " << i;
    EXPECT_EQ(re[i].task, oe[i].task) << "trace event " << i;
    EXPECT_EQ(re[i].job, oe[i].job) << "trace event " << i;
  }
}

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
          expect_bit_identical(
              ref, opt,
              "round=" + std::to_string(round) +
                  " sched=" + (sched == SchedulerPolicy::kEdf ? "edf" : "fp") +
                  " dl=" + (dl == DeadlinePolicy::kSplit ? "split" : "naive") +
                  " rel=" + (rel == ReleasePolicy::kPeriodic ? "per" : "spor"));
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
  expect_bit_identical(ref, opt, "truncated-trace");
}

// ---------------------------------------------------------------------------
// Batched differential: BatchSimEngine's replication r is defined as the
// serial engine run with seed = derive_seed(base_seed, r) against a fresh
// server clone. Every metric field must be bit-identical, on the skeleton
// fast path and on every fallback.

void expect_metrics_bit_identical(const SimMetrics& ref, const SimMetrics& bat,
                                  const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(ref.per_task.size(), bat.per_task.size());
  EXPECT_EQ(ref.cpu_busy_ns, bat.cpu_busy_ns);
  EXPECT_EQ(ref.context_switches, bat.context_switches);
  EXPECT_EQ(ref.trace_truncated, bat.trace_truncated);
  EXPECT_EQ(ref.mode_changes, bat.mode_changes);
  EXPECT_EQ(ref.time_in_degraded_ns, bat.time_in_degraded_ns);
  EXPECT_EQ(ref.end_time.ns(), bat.end_time.ns());
  for (std::size_t i = 0; i < ref.per_task.size(); ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    const auto& x = ref.per_task[i];
    const auto& y = bat.per_task[i];
    EXPECT_EQ(x.released, y.released);
    EXPECT_EQ(x.completed, y.completed);
    EXPECT_EQ(x.deadline_misses, y.deadline_misses);
    EXPECT_EQ(x.local_runs, y.local_runs);
    EXPECT_EQ(x.offload_attempts, y.offload_attempts);
    EXPECT_EQ(x.timely_results, y.timely_results);
    EXPECT_EQ(x.compensations, y.compensations);
    EXPECT_EQ(x.late_results, y.late_results);
    EXPECT_EQ(x.accrued_benefit, y.accrued_benefit);
    EXPECT_EQ(x.observed_response_ms.count(), y.observed_response_ms.count());
    EXPECT_EQ(x.observed_response_ms.sum(), y.observed_response_ms.sum());
    EXPECT_EQ(x.observed_response_ms.mean(), y.observed_response_ms.mean());
    EXPECT_EQ(x.observed_response_ms.min(), y.observed_response_ms.min());
    EXPECT_EQ(x.observed_response_ms.max(), y.observed_response_ms.max());
  }
}

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
    expect_metrics_bit_identical(s.metrics, res.per_replication[r],
                                 label + " rep " + std::to_string(r));
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

TEST(BatchedDifferential, ScenarioServerMatchesAcrossConfigGrid) {
  // One skeleton-eligible configuration (late draws individually bail to
  // the serial engine) plus every ineligibility dimension: fixed-priority
  // dispatch, sporadic releases, stochastic execution, dispatch overhead,
  // and the naive deadline policy (which stays eligible).
  struct Variant {
    const char* name;
    void (*mutate)(SimConfig&);
  };
  const Variant variants[] = {
      {"eligible", [](SimConfig&) {}},
      {"naive-deadline",
       [](SimConfig& c) { c.deadline_policy = DeadlinePolicy::kNaive; }},
      {"fp-dm",
       [](SimConfig& c) { c.scheduler_policy = SchedulerPolicy::kFixedPriorityDm; }},
      {"sporadic",
       [](SimConfig& c) { c.release_policy = ReleasePolicy::kSporadic; }},
      {"uniform-exec",
       [](SimConfig& c) { c.exec_policy = ExecTimePolicy::kUniformFraction; }},
      {"ctx-overhead",
       [](SimConfig& c) { c.context_switch_overhead = 10_us; }},
  };
  const Fixture s = make_setup(101);
  for (const auto scenario :
       {server::Scenario::kNotBusy, server::Scenario::kBusy}) {
    const auto server = server::make_scenario_server(scenario, 3);
    for (const auto& v : variants) {
      SimConfig cfg = batch_base_config();
      cfg.horizon = 3_s;
      v.mutate(cfg);
      expect_batch_matches_serial(
          s.tasks, s.decisions, *server, cfg, 6,
          std::string(v.name) + "/" +
              (scenario == server::Scenario::kNotBusy ? "not-busy" : "busy"));
    }
  }
}

TEST(BatchedDifferential, ComposedFaultRoutingBurstyStackMatches) {
  // Stateful wrapper stack: faults(routing(bursty, benefit-driven)). The
  // fault script's drop clause makes the stack stateful (its own RNG), so
  // the batch draws sequentially per replication; the slowdown window
  // pushes responses past R mid-run, exercising the bail-to-serial path.
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
        expect_bit_identical(ref, opt, label);

        const BatchResult bat =
            batch.run(s.tasks, s.decisions, server, cfg, kReplications);
        fast += batch.stats().fast_replications;
        for (std::size_t r = 0; r < kReplications; ++r) {
          SimConfig c = cfg;
          c.seed = derive_seed(cfg.seed, r);
          auto srv_r = server.clone();
          const SimResult ref_r =
              simulate_reference(s.tasks, s.decisions, *srv_r, c);
          expect_metrics_bit_identical(ref_r.metrics, bat.per_replication[r],
                                       label + " rep " + std::to_string(r));
        }
      }
    }
  }
  EXPECT_GT(fast, 0u) << "no replication took the skeleton path";
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
