// Same-instant ties in the batched replication engine (sim/batch_engine.cpp).
//
// A result arrival that lands on the nanosecond of a release, a completion
// or another arrival must be ordered exactly as the serial engine orders
// it: events on one nanosecond pop in push order, and EDF key ties break
// on the push order of the sub-jobs. Every case below holds each
// replication's SimMetrics to field-by-field equality with SimEngine::run
// under derive_seed(seed, r), and checks that the tie was resolved on the
// fast path rather than by a serial rerun.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/odm.hpp"
#include "core/workload.hpp"
#include "exp/batch.hpp"
#include "obs/sink.hpp"
#include "server/response_model.hpp"
#include "server/routing.hpp"
#include "sim/batch_engine.hpp"
#include "sim/benefit_response.hpp"
#include "sim/engine.hpp"

namespace rt::sim {
namespace {

using namespace rt::literals;

void expect_metrics_equal(const SimMetrics& serial, const SimMetrics& batch,
                          const std::string& label) {
  EXPECT_EQ(serial.context_switches, batch.context_switches) << label;
  EXPECT_EQ(serial.cpu_busy_ns, batch.cpu_busy_ns) << label;
  EXPECT_EQ(serial.end_time, batch.end_time) << label;
  EXPECT_EQ(serial.trace_truncated, batch.trace_truncated) << label;
  EXPECT_EQ(serial.mode_changes, batch.mode_changes) << label;
  EXPECT_EQ(serial.time_in_degraded_ns, batch.time_in_degraded_ns) << label;
  ASSERT_EQ(serial.per_task.size(), batch.per_task.size()) << label;
  for (std::size_t i = 0; i < serial.per_task.size(); ++i) {
    const TaskMetrics& x = serial.per_task[i];
    const TaskMetrics& y = batch.per_task[i];
    const std::string at = label + " task " + std::to_string(i);
    EXPECT_EQ(x.released, y.released) << at;
    EXPECT_EQ(x.completed, y.completed) << at;
    EXPECT_EQ(x.deadline_misses, y.deadline_misses) << at;
    EXPECT_EQ(x.offload_attempts, y.offload_attempts) << at;
    EXPECT_EQ(x.timely_results, y.timely_results) << at;
    EXPECT_EQ(x.late_results, y.late_results) << at;
    EXPECT_EQ(x.compensations, y.compensations) << at;
    EXPECT_EQ(x.local_runs, y.local_runs) << at;
    EXPECT_EQ(x.accrued_benefit, y.accrued_benefit) << at;
    EXPECT_EQ(x.observed_response_ms.count(), y.observed_response_ms.count()) << at;
    EXPECT_EQ(x.observed_response_ms.mean(), y.observed_response_ms.mean()) << at;
    EXPECT_EQ(x.observed_response_ms.stddev(), y.observed_response_ms.stddev()) << at;
    EXPECT_EQ(x.observed_response_ms.min(), y.observed_response_ms.min()) << at;
    EXPECT_EQ(x.observed_response_ms.max(), y.observed_response_ms.max()) << at;
  }
}

struct Scenario {
  core::TaskSet tasks;
  core::DecisionVector decisions;
  std::unique_ptr<server::ResponseModel> server;
  SimConfig cfg;
};

/// Runs `replications` through the batch engine and each one through the
/// serial engine, compares them, and returns the batch engine's stats.
BatchEngineStats expect_parity(const Scenario& s, std::size_t replications,
                               const std::string& label) {
  BatchSimEngine batch;
  const BatchResult res =
      batch.run(s.tasks, s.decisions, *s.server, s.cfg, replications);
  EXPECT_EQ(res.per_replication.size(), replications) << label;
  SimEngine serial;
  for (std::size_t r = 0; r < replications; ++r) {
    const std::unique_ptr<server::ResponseModel> srv = s.server->clone();
    SimConfig c = s.cfg;
    c.seed = derive_seed(s.cfg.seed, r);
    const SimResult ref = serial.run(s.tasks, s.decisions, *srv, c);
    expect_metrics_equal(ref.metrics, res.per_replication[r],
                         label + " rep " + std::to_string(r));
  }
  const BatchEngineStats st = batch.stats();
  EXPECT_EQ(st.bailed_replications, st.bailed_window + st.bailed_tie) << label;
  EXPECT_EQ(st.fast_replications + st.fallback_replications, replications)
      << label;
  return st;
}

/// Asserts every replication stayed on the fast path and at least one tie
/// was stepped there.
void expect_ties_resolved(const BatchEngineStats& st, std::size_t replications,
                          const std::string& label) {
  EXPECT_EQ(st.fast_replications, replications) << label;
  EXPECT_EQ(st.bailed_tie, 0u) << label;
  EXPECT_GT(st.tie_instants, 0u) << label;
}

core::Task local_task(const std::string& name, Duration period,
                      Duration deadline, Duration wcet) {
  core::Task t = core::make_simple_task(name, period, wcet, wcet, wcet);
  t.deadline = deadline;
  return t;
}

/// An offloadable task whose only offload level answers within `window`.
core::Task offload_task(const std::string& name, Duration period,
                        Duration deadline, Duration setup, Duration comp,
                        Duration window) {
  core::Task t = core::make_simple_task(name, period, comp, setup, comp);
  t.deadline = deadline;
  t.benefit = core::BenefitFunction(
      {core::BenefitPoint{Duration::zero(), 0.0}, core::BenefitPoint{window, 1.0}});
  return t;
}

core::Decision offload(const core::Task& t) {
  return core::Decision::offload(1, t.benefit.point(1).response_time);
}

/// One fixed response per task (local tasks never ask).
std::unique_ptr<server::ResponseModel> fixed_per_task(
    const std::vector<Duration>& responses) {
  std::vector<std::unique_ptr<server::ResponseModel>> routes;
  std::vector<std::size_t> route_of_stream;
  for (const Duration d : responses) {
    route_of_stream.push_back(routes.size());
    routes.push_back(std::make_unique<server::FixedResponse>(d));
  }
  return std::make_unique<server::RoutingResponse>(std::move(routes),
                                                   std::move(route_of_stream));
}

SimConfig tie_config(Duration horizon,
                     DeadlinePolicy policy = DeadlinePolicy::kNaive) {
  SimConfig cfg;
  cfg.horizon = horizon;
  cfg.seed = 20140601;
  cfg.deadline_policy = policy;  // kNaive: a setup's EDF key is the job deadline
  return cfg;  // EDF, always-WCET, periodic: skeleton-eligible
}

/// Asserts every replication stayed on the fast path (for ties the walk
/// resolves between instants, at a segment boundary).
void expect_all_fast(const BatchEngineStats& st, std::size_t replications,
                     const std::string& label) {
  EXPECT_EQ(st.fast_replications, replications) << label;
  EXPECT_EQ(st.bailed_replications, 0u) << label;
}

// Hand-built timelines, in milliseconds. Every case is deterministic
// (fixed responses), so each replication replays the same pattern; the
// comments give the serial schedule. Where both orders of a tie yield the
// same counters, the horizon cuts the run between the two possible
// completion instants of the post, so only the right order matches.

// ---------------------------------------------------------------------
// An arrival on a release. B (local, T = D = 20, C = 2) releases at every
// multiple of 20; A's setup runs [2, 3) and sends at 3. An arrival at a
// release of B pops first iff it was sent before that release was pushed,
// one period earlier: iff the response exceeds 20.

Scenario arrival_on_release(Duration response) {
  Scenario s;
  s.tasks = {local_task("B", 20_ms, 20_ms, 2_ms),
             offload_task("A", 200_ms, 200_ms, 1_ms, 5_ms, 100_ms)};
  s.decisions = {core::Decision::local(), offload(s.tasks[1])};
  s.server = fixed_per_task({0_ms, response});
  s.cfg = tie_config(1_s);
  return s;
}

TEST(BatchTie, ReleasePreemptsAJustDispatchedPost) {
  // Arrival at 40, sent at 3 < 20: the post (key 200) runs on the idle
  // CPU, then B's release (key 60) preempts it; the post finishes at 42.
  const Scenario s = arrival_on_release(37_ms);
  expect_ties_resolved(expect_parity(s, 4, "pushed before"), 4, "pushed before");
}

TEST(BatchTie, ArrivalPushedAfterAReleasePopsAfterIt) {
  // Arrival at 20, sent at 3 > 0: B's job runs first, the post after it.
  const Scenario s = arrival_on_release(17_ms);
  expect_ties_resolved(expect_parity(s, 4, "pushed after"), 4, "pushed after");
}

// Equal EDF keys at a release: B (T = D = 20, C = 2) and A's post.
Scenario equal_key_release(Duration deadline, Duration window,
                           Duration response, Duration horizon) {
  Scenario s;
  s.tasks = {local_task("B", 20_ms, 20_ms, 2_ms),
             offload_task("A", 200_ms, deadline, 2_ms, 5_ms, window)};
  s.decisions = {core::Decision::local(), offload(s.tasks[1])};
  s.server = fixed_per_task({0_ms, response});
  s.cfg = tie_config(horizon);
  return s;
}

TEST(BatchTie, EqualKeyReleasePushedFirstRunsFirst) {
  // A (D = 40) sends at 4; the arrival at 20 ties B's job released at 20
  // (key 40), whose release was pushed at 0: B's job runs [20, 22) and
  // the post waits -- cut off by the horizon at 21.
  const Scenario s = equal_key_release(40_ms, 30_ms, 16_ms, 21_ms);
  expect_ties_resolved(expect_parity(s, 2, "job first"), 2, "job first");
}

TEST(BatchTie, EqualKeyArrivalPushedFirstKeepsTheCpu) {
  // A (D = 100) sends at 4; the arrival at 80 ties B's job released at 80
  // (key 100), pushed at 60: the post runs first and B's equal-key job
  // cannot preempt it, so the post completes before the horizon at 81.
  const Scenario s = equal_key_release(100_ms, 90_ms, 76_ms, 81_ms);
  expect_ties_resolved(expect_parity(s, 2, "post first"), 2, "post first");
}

// ---------------------------------------------------------------------
// An arrival on a completion: it always pops first, so a post with a
// smaller key preempts the completing job J and J completes after it.

TEST(BatchTie, ArrivalOnACompletionSentBeforeTheDispatch) {
  // A's setup (key 50) [0, 2) sends at 2; K [2, 5); J [5, 10). The
  // arrival at 10 (post key 50) preempts J, which then completes at 10.
  Scenario s;
  s.tasks = {offload_task("A", 100_ms, 50_ms, 2_ms, 5_ms, 40_ms),
             local_task("K", 100_ms, 60_ms, 3_ms),
             local_task("J", 100_ms, 100_ms, 5_ms)};
  s.decisions = {offload(s.tasks[0]), core::Decision::local(),
                 core::Decision::local()};
  s.server = fixed_per_task({8_ms, 0_ms, 0_ms});
  s.cfg = tie_config(1_s);
  expect_ties_resolved(expect_parity(s, 2, "send before"), 2, "send before");
}

TEST(BatchTie, ArrivalOnACompletionSentAtTheDispatch) {
  // A's setup [0, 2) sends at 2, the instant J is dispatched; J [2, 7).
  Scenario s;
  s.tasks = {offload_task("A", 100_ms, 50_ms, 2_ms, 5_ms, 40_ms),
             local_task("J", 100_ms, 100_ms, 5_ms)};
  s.decisions = {offload(s.tasks[0]), core::Decision::local()};
  s.server = fixed_per_task({5_ms, 0_ms});
  s.cfg = tie_config(1_s);
  expect_ties_resolved(expect_parity(s, 2, "send at"), 2, "send at");
}

TEST(BatchTie, ArrivalOnACompletionSentAfterTheFirstDispatch) {
  // J (C = 60) runs [2, 50), is preempted by A's second setup [50, 52)
  // -- which sends at 52 -- and resumes at 52, after that send, until 64,
  // where the arrival lands. A's first post, at 14, preempted J too.
  Scenario s;
  s.tasks = {offload_task("A", 50_ms, 20_ms, 2_ms, 5_ms, 15_ms),
             local_task("J", 200_ms, 200_ms, 60_ms)};
  s.decisions = {offload(s.tasks[0]), core::Decision::local()};
  s.server = fixed_per_task({12_ms, 0_ms});
  s.cfg = tie_config(120_ms);
  expect_ties_resolved(expect_parity(s, 2, "send after"), 2, "send after");
}

// ---------------------------------------------------------------------
// Two arrivals on one nanosecond, while X (local, key 200) runs [2, 52).
// They pop in send order; the second can preempt the first.

TEST(BatchTie, TwoArrivalsOnOneInstantSmallerKeyFirst) {
  // B's setup [0, 1) sends at 1, A's [1, 2) at 2; both land at 20. B's
  // post (key 90) runs, then A's (key 100), then X again.
  Scenario s;
  s.tasks = {offload_task("A", 200_ms, 100_ms, 1_ms, 5_ms, 50_ms),
             offload_task("B", 200_ms, 90_ms, 1_ms, 5_ms, 50_ms),
             local_task("X", 200_ms, 200_ms, 50_ms)};
  s.decisions = {offload(s.tasks[0]), offload(s.tasks[1]),
                 core::Decision::local()};
  s.server = fixed_per_task({18_ms, 19_ms, 0_ms});
  s.cfg = tie_config(1_s);
  expect_ties_resolved(expect_parity(s, 2, "small key first"), 2,
                       "small key first");
}

TEST(BatchTie, TwoArrivalsOnOneInstantLargerKeyFirst) {
  // Split deadlines: A's setup key is 1, B's 20, so A sends at 1 and B
  // at 2. A's post (key 100) pops first and runs; B's (key 90) preempts
  // it; A's post resumes; X resumes.
  Scenario s;
  s.tasks = {offload_task("A", 200_ms, 100_ms, 1_ms, 9_ms, 90_ms),
             offload_task("B", 200_ms, 90_ms, 1_ms, 1_ms, 50_ms),
             local_task("X", 200_ms, 200_ms, 50_ms)};
  s.decisions = {offload(s.tasks[0]), offload(s.tasks[1]),
                 core::Decision::local()};
  s.server = fixed_per_task({19_ms, 18_ms, 0_ms});
  s.cfg = tie_config(1_s, DeadlinePolicy::kSplit);
  expect_ties_resolved(expect_parity(s, 2, "large key first"), 2,
                       "large key first");
}

// ---------------------------------------------------------------------
// EDF key ties between a waiting post and a skeleton job, resolved at a
// segment boundary (no two events share the arrival's instant).

TEST(BatchTie, EqualKeyRunningJobKeepsTheCpu) {
  // Split deadlines: A's setup (key 8) [0, 2) sends at 2; X (key 100)
  // runs [2, 52). A's post (key 100) arrives at 22 and waits for X; the
  // horizon at 40 cuts it off.
  Scenario s;
  s.tasks = {offload_task("A", 200_ms, 100_ms, 2_ms, 8_ms, 60_ms),
             local_task("X", 200_ms, 100_ms, 50_ms)};
  s.decisions = {offload(s.tasks[0]), core::Decision::local()};
  s.server = fixed_per_task({20_ms, 0_ms});
  s.cfg = tie_config(40_ms, DeadlinePolicy::kSplit);
  expect_all_fast(expect_parity(s, 2, "running tie"), 2, "running tie");
}

// A's post (key 100) waits behind X (key 95, [7, 57)); Y's second job,
// released at 50, has key 100 too. At 57 the earlier push runs first;
// the horizon at 60 shows which.
Scenario next_segment_tie(Duration response) {
  Scenario s;
  s.tasks = {offload_task("A", 100_ms, 100_ms, 2_ms, 8_ms, 60_ms),
             local_task("Y", 50_ms, 50_ms, 5_ms),
             local_task("X", 100_ms, 95_ms, 50_ms)};
  s.decisions = {offload(s.tasks[0]), core::Decision::local(),
                 core::Decision::local()};
  s.server = fixed_per_task({response, 0_ms, 0_ms});
  s.cfg = tie_config(60_ms, DeadlinePolicy::kSplit);
  return s;
}

TEST(BatchTie, EqualKeyNextJobPushedAfterThePostWaits) {
  // Arrival at 22, before Y's release at 50: the post runs at 57.
  expect_all_fast(expect_parity(next_segment_tie(20_ms), 2, "post first"), 2,
                  "post first");
}

TEST(BatchTie, EqualKeyNextJobPushedBeforeThePostRunsFirst) {
  // Arrival at 54, after Y's release: Y's job runs [57, 62) first.
  expect_all_fast(expect_parity(next_segment_tie(52_ms), 2, "job first"), 2,
                  "job first");
}

// ---------------------------------------------------------------------
// Lattice workloads: every period, WCET and response a whole number of
// milliseconds, so arrivals pile onto releases, completions and each other.

/// `rough` adds zero-length setups (two completions on one nanosecond),
/// zero responses and responses up to 2 ms past the window.
Scenario random_lattice(std::uint64_t seed, bool rough) {
  Rng rng(seed);
  Scenario s;
  const std::size_t n = 2 + rng.uniform_int(0, 3);
  std::vector<std::unique_ptr<server::ResponseModel>> routes;
  std::vector<std::size_t> route_of_stream;
  for (std::size_t i = 0; i < n; ++i) {
    const Duration period = 5_ms * rng.uniform_int(2, 12);
    // D: a multiple of 5 ms in (T/2, T].
    const Duration deadline = 5_ms * rng.uniform_int(period.ns() / 10'000'000 + 1,
                                                    period.ns() / 5'000'000);
    const std::string name = "t" + std::to_string(i);
    if (rng.uniform() < 0.35) {
      s.tasks.push_back(local_task(name, period, deadline,
                                   1_ms * rng.uniform_int(1, 4)));
      s.decisions.push_back(core::Decision::local());
    } else {
      const Duration window = 1_ms * rng.uniform_int(1, deadline.ns() / 1'000'000 - 1);
      s.tasks.push_back(offload_task(name, period, deadline,
                                     1_ms * rng.uniform_int(rough ? 0 : 1, 3),
                                     1_ms * rng.uniform_int(1, 4), window));
      s.decisions.push_back(offload(s.tasks.back()));
    }
    // Responses on the whole-millisecond lattice up to the window.
    std::vector<Duration> bag;
    const std::int64_t top = std::max<std::int64_t>(
        1, s.decisions.back().response_time.ns() / 1'000'000);
    for (std::int64_t ms = rough ? 0 : 1; ms <= top + (rough ? 2 : 0); ++ms) {
      bag.push_back(1_ms * ms);
    }
    route_of_stream.push_back(routes.size());
    routes.push_back(std::make_unique<server::EmpiricalResponse>(std::move(bag)));
  }
  s.server = std::make_unique<server::RoutingResponse>(std::move(routes),
                                                       std::move(route_of_stream));
  s.cfg = tie_config(400_ms, seed % 2 == 0 ? DeadlinePolicy::kNaive
                                           : DeadlinePolicy::kSplit);
  return s;
}

TEST(BatchTie, RandomLatticeSetsMatchSerialAndStayFast) {
  // Every draw is timely, so no replication may bail. (A set whose own
  // schedule puts a completion and a release on one nanosecond is
  // ineligible as a whole and runs serially.)
  BatchEngineStats total;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const BatchEngineStats st = expect_parity(
        random_lattice(seed, false), 8, "lattice seed " + std::to_string(seed));
    total.fast_replications += st.fast_replications;
    total.bailed_replications += st.bailed_replications;
    total.tie_instants += st.tie_instants;
  }
  EXPECT_EQ(total.bailed_replications, 0u);
  EXPECT_GT(total.fast_replications, 0u);
  EXPECT_GT(total.tie_instants, 0u);
}

TEST(BatchTie, RoughLatticeSetsMatchSerialOnBothPaths) {
  BatchEngineStats total;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const BatchEngineStats st = expect_parity(
        random_lattice(seed, true), 8, "rough seed " + std::to_string(seed));
    total.fast_replications += st.fast_replications;
    total.bailed_window += st.bailed_window;
    total.bailed_tie += st.bailed_tie;
    total.tie_instants += st.tie_instants;
  }
  EXPECT_GT(total.fast_replications, 0u);
  EXPECT_GT(total.bailed_window, 0u);
  EXPECT_GT(total.bailed_tie, 0u);
  EXPECT_GT(total.tie_instants, 0u);
}

// ---------------------------------------------------------------------
// The paper's Figure 3 sets (BenefitDrivenResponse: every draw is one of
// G_i's breakpoints, on the microsecond lattice).

TEST(BatchTie, PaperSetsMatchSerial) {
  // Workload seed 10 puts ties into both set sizes within 20 s.
  std::size_t timely_only = 0;
  for (const int num_tasks : {12, 30}) {
    for (const double x : {-0.2, 0.0, 0.2}) {
      Rng rng(10);
      core::PaperSimConfig wl;
      wl.num_tasks = num_tasks;
      Scenario s;
      s.tasks = core::make_paper_simulation_taskset(rng, wl);
      core::OdmConfig odm;
      odm.estimation_error = x;
      s.decisions = core::decide_offloading(s.tasks, odm).decisions;
      std::vector<core::BenefitFunction> gs;
      for (const auto& t : s.tasks) gs.push_back(t.benefit);
      s.server = std::make_unique<BenefitDrivenResponse>(std::move(gs));
      s.cfg = tie_config(20_s, DeadlinePolicy::kSplit);
      s.cfg.benefit_semantics = BenefitSemantics::kTimelyCount;
      const std::string label =
          "paper n=" + std::to_string(num_tasks) + " x=" + std::to_string(x);
      const BatchEngineStats st = expect_parity(s, 64, label);
      EXPECT_EQ(st.bailed_tie, 0u) << label;
      if (st.bailed_window == 0) {
        ++timely_only;
        expect_ties_resolved(st, 64, label);
      }
    }
  }
  EXPECT_GE(timely_only, 3u);
}

TEST(BatchTie, RunnerReportsWhereReplicationsWent) {
  // The runner hands its telemetry shard to the engine as SimConfig::sink,
  // which the fast path does not serve, so here every replication runs
  // serially; the split and the bail counters are reported all the same.
  exp::ScenarioSpec spec;
  Rng rng(10);
  core::PaperSimConfig wl;
  wl.num_tasks = 12;
  spec.tasks = core::make_paper_simulation_taskset(rng, wl);
  std::vector<core::BenefitFunction> gs;
  for (const auto& t : spec.tasks) gs.push_back(t.benefit);
  spec.server = std::make_shared<BenefitDrivenResponse>(std::move(gs));
  spec.sim = tie_config(2_s, DeadlinePolicy::kSplit);
  spec.replications = 8;
  obs::Sink sink;
  exp::BatchRunner runner;
  (void)runner.run({spec}, &sink);
  const obs::MetricRegistry& reg = sink.registry();
  const auto value = [&](const char* name) -> std::uint64_t {
    const obs::Counter* c = reg.find_counter(name);
    EXPECT_NE(c, nullptr) << name;
    return c != nullptr ? c->value() : 0;
  };
  EXPECT_EQ(value("batch.fast_replications") +
                value("batch.fallback_replications"),
            8u);
  EXPECT_LE(value("sim.batch.bail.window") + value("sim.batch.bail.tie"),
            value("batch.fallback_replications"));
  (void)value("sim.batch.tie_instants");
}

}  // namespace
}  // namespace rt::sim
