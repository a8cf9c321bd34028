// The shared bit-for-bit comparison (tests/support/compare.hpp) must see
// every field: for each one, a copy that differs only there compares
// unequal, and the message names the field and the task. A field dropped
// from the comparison fails here.

#include "support/compare.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rt::sim {
namespace {

DurationStats stats_of(const std::vector<std::int64_t>& ns) {
  DurationStats s;
  for (const std::int64_t x : ns) s.add(Duration(x));
  return s;
}

SimMetrics sample_metrics() {
  SimMetrics m;
  m.per_task.resize(3);
  for (std::size_t i = 0; i < m.per_task.size(); ++i) {
    TaskMetrics& t = m.per_task[i];
    t.released = 40 + i;
    t.completed = 39 + i;
    t.deadline_misses = i;
    t.local_runs = 10 + i;
    t.offload_attempts = 29 + i;
    t.timely_results = 20 + i;
    t.compensations = 9 + i;
    t.late_results = 3 + i;
    t.accrued_benefit = 17.25 + static_cast<double>(i);
    t.observed_response_ms =
        stats_of({1'500'000, 2'000'000 + static_cast<std::int64_t>(i)});
  }
  m.cpu_busy_ns = 123'456'789;
  m.context_switches = 321;
  m.trace_truncated = false;
  m.mode_changes = 2;
  m.time_in_degraded_ns = 5'000'000;
  m.end_time = TimePoint(1'000'000'000);
  return m;
}

/// Expects a failed comparison whose message contains `where`.
void expect_named(const ::testing::AssertionResult& r, const std::string& where) {
  EXPECT_FALSE(r) << where;
  EXPECT_NE(std::string(r.message()).find(where), std::string::npos)
      << "message \"" << r.message() << "\" does not name " << where;
}

TEST(MetricsEqual, EqualCopiesCompareEqual) {
  EXPECT_TRUE(metrics_equal(sample_metrics(), sample_metrics()));
  EXPECT_TRUE(metrics_equal(SimMetrics{}, SimMetrics{}));
}

TEST(MetricsEqual, EveryTaskCounterAndTheBenefitAreCompared) {
  using Edit = void (*)(TaskMetrics&);
  const std::vector<std::pair<std::string, Edit>> edits = {
      {"released", [](TaskMetrics& t) { ++t.released; }},
      {"completed", [](TaskMetrics& t) { ++t.completed; }},
      {"deadline_misses", [](TaskMetrics& t) { ++t.deadline_misses; }},
      {"local_runs", [](TaskMetrics& t) { ++t.local_runs; }},
      {"offload_attempts", [](TaskMetrics& t) { ++t.offload_attempts; }},
      {"timely_results", [](TaskMetrics& t) { ++t.timely_results; }},
      {"compensations", [](TaskMetrics& t) { ++t.compensations; }},
      {"late_results", [](TaskMetrics& t) { ++t.late_results; }},
      {"accrued_benefit",
       [](TaskMetrics& t) {
         t.accrued_benefit = std::nextafter(t.accrued_benefit, 1e9);
       }},
  };
  for (const auto& [field, edit] : edits) {
    SimMetrics b = sample_metrics();
    edit(b.per_task[1]);
    expect_named(metrics_equal(sample_metrics(), b), "task 1 " + field + ":");
  }
}

TEST(MetricsEqual, EveryResponseStatisticIsCompared) {
  // Each pair agrees on every stored integer compared before the named
  // one, so the comparison must reach it. The mean and the variance are
  // functions of count, sum and sum of squares, so they need no witness.
  struct Witness {
    std::string field;
    std::vector<std::int64_t> a, b;
  };
  const std::vector<Witness> witnesses = {
      {"count()", {1}, {1, 1}},
      {"sum_ns()", {1, 2}, {1, 3}},
      {"sum_sq_ns2()", {0, 4}, {2, 2}},
      {"min_ns()", {1, 5, 6}, {2, 3, 7}},
      {"max_ns()", {0, 0, 3, 3}, {0, 1, 1, 4}},
  };
  for (const Witness& w : witnesses) {
    SimMetrics a = sample_metrics();
    SimMetrics b = sample_metrics();
    a.per_task[2].observed_response_ms = stats_of(w.a);
    b.per_task[2].observed_response_ms = stats_of(w.b);
    expect_named(metrics_equal(a, b), "task 2 observed_response_ms." + w.field + ":");
  }
}

TEST(MetricsEqual, SumOfSquaresPrintsInDecimal) {
  // 2^82 and 2^81 ns^2: past 64 bits, with the same count and sum.
  SimMetrics a = sample_metrics();
  SimMetrics b = sample_metrics();
  a.per_task[0].observed_response_ms = stats_of({0, std::int64_t{1} << 41});
  b.per_task[0].observed_response_ms =
      stats_of({std::int64_t{1} << 40, std::int64_t{1} << 40});
  expect_named(metrics_equal(a, b),
               "task 0 observed_response_ms.sum_sq_ns2(): "
               "4835703278458516698824704 vs 2417851639229258349412352");
}

TEST(MetricsEqual, EveryRunFieldIsCompared) {
  using Edit = void (*)(SimMetrics&);
  const std::vector<std::pair<std::string, Edit>> edits = {
      {"per_task.size()", [](SimMetrics& m) { m.per_task.pop_back(); }},
      {"cpu_busy_ns", [](SimMetrics& m) { ++m.cpu_busy_ns; }},
      {"context_switches", [](SimMetrics& m) { ++m.context_switches; }},
      {"trace_truncated", [](SimMetrics& m) { m.trace_truncated = true; }},
      {"mode_changes", [](SimMetrics& m) { ++m.mode_changes; }},
      {"time_in_degraded_ns", [](SimMetrics& m) { ++m.time_in_degraded_ns; }},
      {"end_time.ns()", [](SimMetrics& m) { m.end_time += Duration(1); }},
  };
  for (const auto& [field, edit] : edits) {
    SimMetrics b = sample_metrics();
    edit(b);
    const ::testing::AssertionResult r = metrics_equal(sample_metrics(), b);
    expect_named(r, field + ":");
    EXPECT_EQ(std::string(r.message()).find("task "), std::string::npos) << field;
  }
}

TEST(MetricsEqual, DoublesCompareBitForBit) {
  SimMetrics a = sample_metrics();
  SimMetrics b = sample_metrics();
  a.per_task[0].accrued_benefit = 0.0;
  b.per_task[0].accrued_benefit = -0.0;
  expect_named(metrics_equal(a, b), "task 0 accrued_benefit:");
  a.per_task[0].accrued_benefit = b.per_task[0].accrued_benefit = std::nan("");
  EXPECT_TRUE(metrics_equal(a, b));
}

Trace trace_of(const std::vector<TraceEvent>& events, std::size_t capacity) {
  Trace t(capacity);
  for (const TraceEvent& e : events) t.record(e.time, e.kind, e.task, e.job);
  return t;
}

TEST(TracesEqual, EveryEventFieldIsCompared) {
  const std::vector<TraceEvent> events = {
      {TimePoint(10), TraceKind::kRelease, 1, 0},
      {TimePoint(20), TraceKind::kDispatch, 1, 0},
      {TimePoint(30), TraceKind::kJobComplete, 1, 0},
  };
  const Trace base = trace_of(events, 8);
  EXPECT_TRUE(traces_equal(base, trace_of(events, 8)));
  const std::vector<std::pair<std::string, TraceEvent>> edits = {
      {"time.ns()", {TimePoint(21), TraceKind::kDispatch, 1, 0}},
      {"kind", {TimePoint(20), TraceKind::kPreempt, 1, 0}},
      {"task", {TimePoint(20), TraceKind::kDispatch, 2, 0}},
      {"job", {TimePoint(20), TraceKind::kDispatch, 1, 5}},
  };
  for (const auto& [field, event] : edits) {
    std::vector<TraceEvent> changed = events;
    changed[1] = event;
    expect_named(traces_equal(base, trace_of(changed, 8)),
                 "trace event 1 " + field + ":");
  }
  std::vector<TraceEvent> longer = events;
  longer.push_back({TimePoint(40), TraceKind::kRelease, 0, 1});
  expect_named(traces_equal(base, trace_of(longer, 8)), "events().size():");
  // The same three events, but this trace dropped the fourth.
  expect_named(traces_equal(base, trace_of(longer, 3)), "truncated():");
}

TEST(DecisionsEqual, EveryDecisionFieldIsCompared) {
  using core::Decision;
  const core::DecisionVector base = {
      Decision::local(1.0), Decision::offload(2, Duration(5'000'000), 3.5)};
  EXPECT_TRUE(core::decisions_equal(base, base));
  using Edit = void (*)(core::DecisionVector&);
  const std::vector<std::pair<std::string, Edit>> edits = {
      {"size()", [](core::DecisionVector& d) { d.pop_back(); }},
      {"task 1 level:", [](core::DecisionVector& d) { d[1].level = 1; }},
      {"task 1 response_time.ns():",
       [](core::DecisionVector& d) { d[1].response_time += Duration(1); }},
      {"task 1 claimed_benefit:",
       [](core::DecisionVector& d) {
         d[1].claimed_benefit = std::nextafter(d[1].claimed_benefit, 0.0);
       }},
  };
  for (const auto& [field, edit] : edits) {
    core::DecisionVector b = base;
    edit(b);
    expect_named(core::decisions_equal(base, b), field);
  }
}

}  // namespace
}  // namespace rt::sim
