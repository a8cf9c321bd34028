// Same-instant ties in the batched replication engine (sim/batch_engine.cpp).
//
// A result arrival that lands on the nanosecond of a release, a completion
// or another arrival must be ordered exactly as the serial engine orders
// it: events on one nanosecond pop in push order, and EDF key ties break
// on the push order of the sub-jobs. Every case below holds each
// replication's SimMetrics to field-by-field equality with SimEngine::run
// under derive_seed(seed, r), and checks that the tie was resolved by a
// resync window rather than by a serial rerun.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
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
#include "support/compare.hpp"

namespace rt::sim {
namespace {

using namespace rt::literals;

struct Scenario {
  core::TaskSet tasks;
  core::DecisionVector decisions;
  std::unique_ptr<server::ResponseModel> server;
  SimConfig cfg;
};

/// Runs `replications` through the batch engine and each one through the
/// serial engine, compares them, and returns the batch engine's stats
/// (and, if asked, its results).
BatchEngineStats expect_parity(const Scenario& s, std::size_t replications,
                               const std::string& label,
                               BatchResult* out = nullptr) {
  BatchSimEngine batch;
  BatchResult res = batch.run(s.tasks, s.decisions, *s.server, s.cfg, replications);
  EXPECT_EQ(res.per_replication.size(), replications) << label;
  SimEngine serial;
  for (std::size_t r = 0; r < replications; ++r) {
    const std::unique_ptr<server::ResponseModel> srv = s.server->clone();
    SimConfig c = s.cfg;
    c.seed = derive_seed(s.cfg.seed, r);
    const SimResult ref = serial.run(s.tasks, s.decisions, *srv, c);
    EXPECT_TRUE(metrics_equal(ref.metrics, res.per_replication[r]))
        << label << " rep " << r;
  }
  const BatchEngineStats st = batch.stats();
  EXPECT_EQ(st.bailed_replications, 0u) << label;
  EXPECT_EQ(st.fast_replications + st.fallback_replications, replications)
      << label;
  if (out != nullptr) *out = std::move(res);
  return st;
}

/// Asserts every replication stayed on the fast path and at least one tie
/// was stepped there, by a resync window.
void expect_ties_resolved(const BatchEngineStats& st, std::size_t replications,
                          const std::string& label) {
  EXPECT_EQ(st.fast_replications, replications) << label;
  EXPECT_EQ(st.bailed_replications, 0u) << label;
  EXPECT_GT(st.resync_windows, 0u) << label;
  EXPECT_GT(st.resync_events, 0u) << label;
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

/// Asserts every replication stayed on the fast path without a resync
/// window (for ties the outcome table resolves between instants, at a
/// segment boundary).
void expect_all_fast(const BatchEngineStats& st, std::size_t replications,
                     const std::string& label) {
  EXPECT_EQ(st.fast_replications, replications) << label;
  EXPECT_EQ(st.bailed_replications, 0u) << label;
  EXPECT_EQ(st.resync_windows, 0u) << label;
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
// The outcome table's reach: the draw columns an arrival is compared with,
// and how long a waiting post stays in the ready queue. Split deadlines
// give A's setup the key 1, so it runs first, [0, 1), and sends at 1; its
// post has the key 100.

core::Task first_sender() {
  return offload_task("A", 200_ms, 100_ms, 1_ms, 9_ms, 90_ms);
}

TEST(BatchTie, TwoArrivalsOnOneInstantFromSendsTwoColumnsApart) {
  // Setups: A (key 1) [0, 1), M (key 10) [1, 2), B (key 20) [2, 3). A's
  // long response and B's short one both land at 40; M's, between them in
  // draw order, at 7. The arrivals pop in send order: A's post runs on the
  // idle CPU, B's (key 90) preempts it, and A's resumes -- one switch more
  // than two posts on two instants.
  Scenario s;
  s.tasks = {first_sender(), offload_task("M", 200_ms, 80_ms, 1_ms, 1_ms, 60_ms),
             offload_task("B", 200_ms, 90_ms, 1_ms, 1_ms, 50_ms)};
  s.decisions = {offload(s.tasks[0]), offload(s.tasks[1]), offload(s.tasks[2])};
  s.server = fixed_per_task({39_ms, 5_ms, 37_ms});
  s.cfg = tie_config(1_s, DeadlinePolicy::kSplit);
  expect_ties_resolved(expect_parity(s, 2, "two columns apart"), 2,
                       "two columns apart");
}

TEST(BatchTie, PostWaitsAcrossTwoSegmentBoundaries) {
  // X [1, 11), Y [11, 21) and Z [21, 31) all precede A's post, which
  // arrives at 6 and waits through both boundaries; the horizon at 26
  // cuts Z's segment, so the post never completes. Completing it at X's
  // end would count it.
  Scenario s;
  s.tasks = {first_sender(), local_task("X", 200_ms, 60_ms, 10_ms),
             local_task("Y", 200_ms, 70_ms, 10_ms),
             local_task("Z", 200_ms, 80_ms, 10_ms)};
  s.decisions = {offload(s.tasks[0]), core::Decision::local(),
                 core::Decision::local(), core::Decision::local()};
  s.server = fixed_per_task({5_ms, 0_ms, 0_ms, 0_ms});
  s.cfg = tie_config(26_ms, DeadlinePolicy::kSplit);
  expect_all_fast(expect_parity(s, 2, "two boundaries"), 2, "two boundaries");
}

TEST(BatchTie, PostWaitingWhenAnIdleGapBeginsRunsThere) {
  // Y's first job runs [1, 3), X [3, 13); A's post arrives at 6 behind
  // X. The CPU then idles until Y's release at 20, and that job (key 40)
  // would precede the post: the post runs at 13, where the gap begins.
  // Waiting for Y, whose segment the horizon at 21 cuts, would leave it
  // uncompleted.
  Scenario s;
  s.tasks = {first_sender(), local_task("X", 200_ms, 60_ms, 10_ms),
             local_task("Y", 20_ms, 20_ms, 2_ms)};
  s.decisions = {offload(s.tasks[0]), core::Decision::local(),
                 core::Decision::local()};
  s.server = fixed_per_task({5_ms, 0_ms, 0_ms});
  s.cfg = tie_config(21_ms, DeadlinePolicy::kSplit);
  expect_all_fast(expect_parity(s, 2, "idle gap"), 2, "idle gap");
}

TEST(BatchTie, PostStillWaitingAtTheHorizon) {
  // A's post arrives at 6 behind X [1, 51), whose segment the horizon at
  // 40 cuts: the arrival counts as timely, the post never completes.
  Scenario s;
  s.tasks = {first_sender(), local_task("X", 200_ms, 60_ms, 50_ms)};
  s.decisions = {offload(s.tasks[0]), core::Decision::local()};
  s.server = fixed_per_task({5_ms, 0_ms});
  s.cfg = tie_config(40_ms, DeadlinePolicy::kSplit);
  expect_all_fast(expect_parity(s, 2, "horizon"), 2, "horizon");
}

TEST(BatchTie, CountersSurviveMoreThan65536Columns) {
  // A 1 ms task for 70 s: 70,000 draw columns, each adding a timely post
  // that runs on the idle CPU, past what one 16-bit packed field holds.
  Scenario s;
  s.tasks = {offload_task("A", 1_ms, 1_ms, 100_us, 200_us, 500_us)};
  s.decisions = {offload(s.tasks[0])};
  s.server = fixed_per_task({300_us});
  s.cfg = tie_config(70_s);
  expect_all_fast(expect_parity(s, 2, "long"), 2, "long");
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
    // Appended: GCC 12 warns a false -Wrestrict on an inlined
    // `"t" + std::to_string(i)` (the same below).
    const std::string name = std::string("t").append(std::to_string(i));
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
  // Every draw is timely, so only ties open windows. (A set whose own
  // schedule puts a completion and a release on one nanosecond is
  // ineligible as a whole and runs serially.)
  BatchEngineStats total;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const BatchEngineStats st = expect_parity(
        random_lattice(seed, false), 8, "lattice seed " + std::to_string(seed));
    total.fast_replications += st.fast_replications;
    total.bailed_replications += st.bailed_replications;
    total.resync_windows += st.resync_windows;
    total.resync_events += st.resync_events;
  }
  EXPECT_EQ(total.bailed_replications, 0u);
  EXPECT_GT(total.fast_replications, 0u);
  EXPECT_GT(total.resync_windows, 0u);
  EXPECT_GT(total.resync_events, 0u);
}

TEST(BatchTie, RoughLatticeSetsMatchSerialOnBothPaths) {
  BatchEngineStats total;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const BatchEngineStats st = expect_parity(
        random_lattice(seed, true), 8, "rough seed " + std::to_string(seed));
    total.fast_replications += st.fast_replications;
    total.bailed_replications += st.bailed_replications;
    total.resync_windows += st.resync_windows;
    total.resync_events += st.resync_events;
  }
  EXPECT_GT(total.fast_replications, 0u);
  EXPECT_EQ(total.bailed_replications, 0u);
  EXPECT_GT(total.resync_windows, 0u);
  EXPECT_GT(total.resync_events, 0u);
}

/// Like random_lattice without `rough`, but every period, deadline, WCET
/// and response is off the millisecond lattice by a few hundred odd
/// nanoseconds, so no two events share a nanosecond.
Scenario random_off_lattice(std::uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  const auto jitter = [&] {
    return Duration::nanoseconds(2 * rng.uniform_int(1, 499) + 1);
  };
  const std::size_t n = 2 + rng.uniform_int(0, 3);
  std::vector<std::unique_ptr<server::ResponseModel>> routes;
  std::vector<std::size_t> route_of_stream;
  for (std::size_t i = 0; i < n; ++i) {
    const Duration period = 5_ms * rng.uniform_int(2, 12) + jitter();
    const Duration deadline = period - 1_ms * rng.uniform_int(0, 4) - jitter();
    const std::string name = std::string("t").append(std::to_string(i));
    if (rng.uniform() < 0.35) {
      s.tasks.push_back(local_task(name, period, deadline,
                                   1_ms * rng.uniform_int(1, 4) + jitter()));
      s.decisions.push_back(core::Decision::local());
    } else {
      const Duration window = 1_ms * rng.uniform_int(1, deadline.ns() / 1'000'000 - 1);
      s.tasks.push_back(offload_task(name, period, deadline,
                                     1_ms * rng.uniform_int(1, 3) + jitter(),
                                     1_ms * rng.uniform_int(1, 4) + jitter(), window));
      s.decisions.push_back(offload(s.tasks.back()));
    }
    std::vector<Duration> bag;
    const std::int64_t top = s.decisions.back().response_time.ns();
    for (int k = 0; k < 8; ++k) {
      bag.push_back(
          Duration::nanoseconds(rng.uniform_int(1, std::max<std::int64_t>(top, 1))));
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

TEST(BatchTie, OffLatticeSetsNeverTakeTheExactMerge) {
  // Nothing shares a nanosecond, so the outcome table serves every lane.
  BatchEngineStats total;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const BatchEngineStats st = expect_parity(
        random_off_lattice(seed), 8, "off-lattice seed " + std::to_string(seed));
    total.fast_replications += st.fast_replications;
    total.bailed_replications += st.bailed_replications;
    total.resync_windows += st.resync_windows;
    total.resync_events += st.resync_events;
  }
  EXPECT_EQ(total.bailed_replications, 0u);
  EXPECT_GT(total.fast_replications, 0u);
  EXPECT_EQ(total.resync_windows, 0u);
  EXPECT_EQ(total.resync_events, 0u);
}

/// Windows that must wait past idle instants for their timers. Many tasks
/// of one short period, answered on time, send their requests in a burst
/// after each common release and none for the rest of the period; two
/// tasks with long admitted windows, whose server drops half their
/// requests, keep compensation timers in flight past the instants the
/// lane goes idle, some in those send-free stretches. Off the millisecond
/// lattice, so only the timers diverge.
Scenario random_sparse(std::uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  const auto jitter = [&] {
    return Duration::nanoseconds(2 * rng.uniform_int(1, 499) + 1);
  };
  std::vector<std::unique_ptr<server::ResponseModel>> routes;
  std::vector<std::size_t> route_of_stream;
  const Duration short_period = 1_ms * rng.uniform_int(20, 30) + jitter();
  const std::size_t chatty = 10 + rng.uniform_int(0, 6);
  for (std::size_t i = 0; i < chatty; ++i) {
    const Duration window = 1_ms * rng.uniform_int(2, 5) + jitter();
    s.tasks.push_back(
        offload_task(std::string("c").append(std::to_string(i)), short_period,
                     short_period,
                     Duration::microseconds(rng.uniform_int(50, 150)) + jitter(),
                     Duration::microseconds(rng.uniform_int(50, 150)), window));
    s.decisions.push_back(offload(s.tasks.back()));
    route_of_stream.push_back(routes.size());
    routes.push_back(std::make_unique<server::FixedResponse>(window - jitter()));
  }
  for (int k = 0; k < 2; ++k) {
    const Duration period = short_period * rng.uniform_int(4, 9) +
                            1_ms * rng.uniform_int(0, 9) + jitter();
    const Duration window = period * 3 / 4;
    s.tasks.push_back(offload_task("late" + std::to_string(k), period, period,
                                   300_us + jitter(), 1_ms + jitter(), window));
    s.decisions.push_back(offload(s.tasks.back()));
    route_of_stream.push_back(routes.size());
    routes.push_back(std::make_unique<server::EmpiricalResponse>(
        std::vector<Duration>{window / 3 + jitter()}, 0.5));
  }
  s.server = std::make_unique<server::RoutingResponse>(std::move(routes),
                                                       std::move(route_of_stream));
  // The horizon falls late in a send-free stretch, so a timer can be
  // in flight there after the last send.
  s.cfg = tie_config(
      short_period * rng.uniform_int(6, 60) - 1_ms * rng.uniform_int(1, 3),
      DeadlinePolicy::kSplit);
  return s;
}

TEST(BatchTie, WindowsWaitingForTimersInSendFreeStretchesMatchSerial) {
  BatchEngineStats total;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const BatchEngineStats st = expect_parity(random_sparse(seed), 3,
                                              "sparse seed " + std::to_string(seed));
    total.fast_replications += st.fast_replications;
    total.resync_windows += st.resync_windows;
  }
  EXPECT_EQ(total.fast_replications, 180u);
  EXPECT_GT(total.resync_windows, 0u);
}

// A divergence still in flight when a window closes after the last send.
// A, B and C send at 1, 2 and 3. A's server answers late, so its timer
// fires at 301; B's and C's answers both land at 400, a same-nanosecond
// pair. A's window runs its compensation [301, 306) and closes at 306, the
// pair still in flight and no column left to send: the pair needs a
// window of its own.
TEST(BatchTie, DivergencePendingAfterTheLastSendGetsItsWindow) {
  Scenario s;
  s.tasks = {offload_task("A", 1_s, 1_s, 1_ms, 5_ms, 300_ms),
             offload_task("B", 1_s, 1_s, 1_ms, 5_ms, 450_ms),
             offload_task("C", 1_s, 1_s, 1_ms, 5_ms, 450_ms)};
  s.decisions = {offload(s.tasks[0]), offload(s.tasks[1]), offload(s.tasks[2])};
  s.server = fixed_per_task({500_ms, 398_ms, 397_ms});
  s.cfg = tie_config(900_ms);
  const BatchEngineStats st = expect_parity(s, 4, "pair in flight after the last send");
  EXPECT_EQ(st.fast_replications, 4u);
  EXPECT_EQ(st.resync_windows, 8u);  // A's timer, then the pair
}

// ---------------------------------------------------------------------
// The paper's Figure 3 sets (BenefitDrivenResponse: every draw is one of
// G_i's breakpoints, on the microsecond lattice).

TEST(BatchTie, PaperSetsMatchSerial) {
  // Workload seed 10 puts ties into both set sizes within 20 s. In a set
  // whose draws are all timely, only a same-instant tie opens a window.
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
      BatchResult res;
      const BatchEngineStats st = expect_parity(s, 64, label, &res);
      EXPECT_EQ(st.bailed_replications, 0u) << label;
      bool timely = true;
      for (const SimMetrics& m : res.per_replication) {
        for (const TaskMetrics& tm : m.per_task) {
          timely = timely && tm.late_results == 0 && tm.compensations == 0;
        }
      }
      if (timely) {
        ++timely_only;
        expect_ties_resolved(st, 64, label);
      }
    }
  }
  EXPECT_GE(timely_only, 3u);
}

// ---------------------------------------------------------------------
// The column loop's 32-bit offsets. Arrivals and boundaries are stored
// relative to their column's send, so every window R up to 2^31 - 1 ns
// must be served exactly, at both ends of the response range; a wider one
// takes the serial engine.

/// Stateless: each draw is one of `choices`, picked uniformly.
class ChoiceResponse final : public server::ResponseModel {
 public:
  explicit ChoiceResponse(std::vector<Duration> choices)
      : choices_(std::move(choices)) {}
  Duration sample(const server::Request&, Rng& rng) override {
    return choices_[rng.next() % choices_.size()];
  }
  bool is_stateless() const override { return true; }
  std::unique_ptr<server::ResponseModel> clone() const override {
    return std::make_unique<ChoiceResponse>(choices_);
  }

 private:
  std::vector<Duration> choices_;
};

constexpr Duration kWidestWindow = Duration::nanoseconds(0x7FFF'FFFF);

/// A and C offload with window W, in periods of 4W. Alone, A's setup
/// runs [0, 2 ms) and C's [2 ms, 2 ms + W - 1 ns), so C sends at the
/// largest delta from A's send at which A's window is still open. With
/// `pops`, B, a local 100 us job every 10 ms (every W / 4 when shorter),
/// puts pops into the windows.
Scenario wide_sends(Duration w, bool pops) {
  const Duration period = w * 4;
  Scenario s;
  s.tasks = {offload_task("A", period, w * 2, 2_ms, 5_ms, w),
             offload_task("C", period, w * 3, w - Duration::nanoseconds(1), 5_ms, w)};
  s.decisions = {offload(s.tasks[0]), offload(s.tasks[1])};
  if (pops) {
    const Duration b = std::min(10_ms, w / 4);
    s.tasks.push_back(local_task("B", b, b, 100_us));
    s.decisions.push_back(core::Decision::local());
  }
  s.cfg = tie_config(period * 3);
  return s;
}

TEST(BatchTie, ArrivalsTieAtTheLargestSendDelta) {
  // A answers at R and C after 1 ns: both arrive at 2 ms + W, where A's
  // offset W equals C's 1 ns plus the send delta W - 1 ns.
  for (const Duration w : {10_ms, kWidestWindow}) {
    Scenario s = wide_sends(w, false);
    s.server = fixed_per_task({w, Duration::nanoseconds(1)});
    const std::string label = "W=" + std::to_string(w.ns()) + "ns";
    expect_ties_resolved(expect_parity(s, 4, label), 4, label);
  }
}

TEST(BatchTie, EdgeResponsesMatchSerialUpToTheWidestWindow) {
  // Responses of exactly 0, 1 ns, R - 1 ns, R and R + 1 ns, and none,
  // mixed across the lanes of every column; 130 replications cross a
  // block.
  for (const Duration w : {10_ms, kWidestWindow}) {
    Scenario s = wide_sends(w, true);
    const Duration ns1 = Duration::nanoseconds(1);
    s.server = std::make_unique<ChoiceResponse>(std::vector<Duration>{
        0_ms, ns1, w / 2, w - ns1, w, w + ns1, server::kNoResponse});
    const std::string label = "W=" + std::to_string(w.ns()) + "ns";
    const BatchEngineStats st = expect_parity(s, 130, label);
    EXPECT_EQ(st.fast_replications, 130u) << label;
    EXPECT_GT(st.resync_windows, 0u) << label;
  }
}

TEST(BatchTie, WindowOf2To31NsRunsSerially) {
  // One nanosecond wider than the offsets hold: every replication takes
  // the serial engine, under its own cause.
  const Duration w = kWidestWindow + Duration::nanoseconds(1);
  Scenario s = wide_sends(w, true);
  s.server = std::make_unique<ChoiceResponse>(std::vector<Duration>{
      0_ms, w, w + Duration::nanoseconds(1), server::kNoResponse});
  const BatchEngineStats st = expect_parity(s, 6, "W=2^31ns");
  EXPECT_EQ(st.ineligible_wide_window, 6u);
  EXPECT_EQ(st.fallback_replications, 6u);
}

TEST(BatchTie, NegativeResponseIsRejectedOnBothPaths) {
  Scenario s = wide_sends(10_ms, true);
  const Duration before_send = Duration::nanoseconds(-1);
  s.server = std::make_unique<ChoiceResponse>(std::vector<Duration>{before_send});
  const auto message = [&](const std::function<void()>& run) -> std::string {
    try {
      run();
    } catch (const std::domain_error& e) {
      return e.what();
    }
    return "";
  };
  const std::string serial = message([&] {
    const std::unique_ptr<server::ResponseModel> srv = s.server->clone();
    (void)SimEngine().run(s.tasks, s.decisions, *srv, s.cfg);
  });
  const std::string batch = message([&] {
    (void)BatchSimEngine().run(s.tasks, s.decisions, *s.server, s.cfg, 4);
  });
  EXPECT_NE(serial, "");
  EXPECT_EQ(batch, serial);
}

TEST(BatchTie, RunnerReportsWhereReplicationsWent) {
  // The runner hands its telemetry shard to the engine as SimConfig::sink,
  // which selects no path: the runner reports the split, windows included,
  // that the engine gives the same replications without a sink.
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
  const std::vector<exp::ScenarioOutcome> out = runner.run({spec}, &sink);
  const obs::MetricRegistry& reg = sink.registry();
  const auto value = [&](const char* name) -> std::uint64_t {
    const obs::Counter* c = reg.find_counter(name);
    EXPECT_NE(c, nullptr) << name;
    return c != nullptr ? c->value() : 0;
  };
  SimConfig cfg = spec.sim;
  cfg.seed = exp::scenario_seed(runner.config().base_seed, 0);
  BatchSimEngine engine;
  (void)engine.run(spec.tasks, out[0].decisions, *spec.server, cfg, spec.replications);
  const BatchEngineStats& st = engine.stats();
  EXPECT_EQ(value("batch.fast_replications"), st.fast_replications);
  EXPECT_EQ(value("batch.fallback_replications"), st.fallback_replications);
  EXPECT_EQ(value("sim.batch.resync_windows"), st.resync_windows);
  EXPECT_EQ(value("sim.batch.resync_events"), st.resync_events);
  EXPECT_EQ(st.fast_replications, 8u);
  EXPECT_EQ(reg.find_counter("sim.batch.ineligible.sink"), nullptr);
}

}  // namespace
}  // namespace rt::sim
