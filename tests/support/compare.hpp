#pragma once
// The one definition of "bit-identical" the differential suites share:
// every SimMetrics / TaskMetrics field, every decision and every trace
// event, doubles compared bit for bit. Each returns a gtest
// AssertionResult naming the first difference (field, task, event), so
// EXPECT_TRUE and EXPECT_FALSE both read well.
//
// A new metrics field goes here (and into golden_test.cpp's fingerprint):
// the guards below fail the build of every includer until it does.

#include <gtest/gtest.h>

#include "core/decision.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace rt::sim {

// Layout guards. A field added to either struct, or to DurationStats,
// changes its size (LP64 layout); the structured bindings also catch a
// field that would fit in padding. Update metrics_equal() and
// golden_test.cpp's fingerprint() together with these. TaskMetrics is
// 72 bytes of counters and benefit, 8 of padding to DurationStats's
// 16-byte (__int128) alignment, and its 48.
static_assert(sizeof(TaskMetrics) == 128, "update metrics_equal() and fingerprint()");
static_assert(sizeof(SimMetrics) == 72, "update metrics_equal() and fingerprint()");
inline void metrics_field_count_guard(const TaskMetrics& t, const SimMetrics& m) {
  [[maybe_unused]] const auto& [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9] = t;
  [[maybe_unused]] const auto& [m0, m1, m2, m3, m4, m5, m6] = m;
}

/// Every per-task counter, accrued_benefit, observed_response_ms's stored
/// integers (count, sum, sum of squares, min and max: its mean and
/// variance are functions of them), then cpu_busy_ns,
/// context_switches, trace_truncated, mode_changes, time_in_degraded_ns
/// and end_time.
::testing::AssertionResult metrics_equal(const SimMetrics& a, const SimMetrics& b);

/// Event count, truncation flag, and each event's time, kind, task and job.
::testing::AssertionResult traces_equal(const Trace& a, const Trace& b);

/// Success when no task missed a deadline; otherwise names the first task
/// with a miss and its count (`task 2 deadline_misses: 3`). A guarantee
/// test writes EXPECT_TRUE(no_misses(result.metrics)) after the run.
::testing::AssertionResult no_misses(const SimMetrics& m);

}  // namespace rt::sim

namespace rt::core {

/// Each decision's level, response_time and claimed_benefit.
::testing::AssertionResult decisions_equal(const DecisionVector& a,
                                           const DecisionVector& b);

}  // namespace rt::core
