#pragma once
// Discrete-event simulation of the compensation-based offloading runtime
// (paper Sections 3 and 5.1) on a single preemptive EDF CPU.
//
// Per offloaded job (release t, level j, estimated response R):
//   1. setup sub-job (C_{i,1}) with absolute deadline t + D_{i,1};
//   2. at setup completion the request goes to the (unreliable) server and
//      the compensation timer is armed at send + R;
//   3. if the result arrives before the timer: post-processing sub-job
//      (C_{i,3}) with absolute deadline t + D_i, benefit G_i(level);
//      otherwise the timer releases the compensation sub-job (C_{i,2}),
//      same absolute deadline, benefit G_i(0). Late results are discarded.
// Local jobs run as single sub-jobs (C_i) with deadline t + D_i.
//
// The scheduler is textbook preemptive EDF over absolute deadlines (the
// paper's algorithm: deadlines differ from naive EDF only through the
// split assignment). The simulator never trusts the analysis: it measures
// deadline misses and reports them, which is how the tests verify the
// Theorem 3 guarantee end to end.

#include <functional>
#include <memory>
#include <vector>

#include "core/decision.hpp"
#include "core/task.hpp"
#include "server/response_model.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace rt::obs {
class Sink;
}  // namespace rt::obs

namespace rt::health {
class ModeController;
}  // namespace rt::health

namespace rt::sim {

/// How sub-job *actual* execution times relate to their WCETs.
enum class ExecTimePolicy {
  kAlwaysWcet,        ///< worst case every time (analysis-faithful)
  kUniformFraction,   ///< uniform in [min_fraction * WCET, WCET]
};

/// How a job release pattern behaves.
enum class ReleasePolicy {
  kPeriodic,  ///< strictly periodic from time 0
  kSporadic,  ///< inter-arrival = T * (1 + U(0, sporadic_slack))
};

/// How accrued benefit is accounted per completed job.
enum class BenefitSemantics {
  /// Quality semantics (case study): timely result earns G_i(level),
  /// compensation earns G_i(0), each weighted by the task weight.
  kQualityValue,
  /// Counting semantics (Figure 3 simulation): a timely result counts 1
  /// "higher-performance output" (weighted); compensation earns G_i(0).
  kTimelyCount,
};

/// Deadline assignment used for offloaded jobs.
enum class DeadlinePolicy {
  kSplit,  ///< the paper's proportional split (Section 5.1)
  kNaive,  ///< both phases keep the full deadline (the poor baseline)
};

/// CPU scheduling policy.
enum class SchedulerPolicy {
  kEdf,              ///< preemptive EDF over absolute sub-job deadlines
  kFixedPriorityDm,  ///< preemptive fixed priority, deadline-monotonic
};

struct SimConfig {
  Duration horizon = Duration::seconds(10);
  ExecTimePolicy exec_policy = ExecTimePolicy::kAlwaysWcet;
  double exec_min_fraction = 0.5;  ///< for kUniformFraction
  ReleasePolicy release_policy = ReleasePolicy::kPeriodic;
  double sporadic_slack = 0.2;
  BenefitSemantics benefit_semantics = BenefitSemantics::kQualityValue;
  DeadlinePolicy deadline_policy = DeadlinePolicy::kSplit;
  SchedulerPolicy scheduler_policy = SchedulerPolicy::kEdf;
  /// Cost charged to the incoming sub-job on every dispatch switch
  /// (preemption, resume, or start-after-completion). The analysis absorbs
  /// it the classical way: inflate every WCET by 2x the overhead before
  /// running the tests. Zero by default (the paper's model).
  Duration context_switch_overhead = Duration::zero();
  std::uint64_t seed = 42;
  std::size_t trace_capacity = 0;  ///< 0 disables tracing
  /// Optional telemetry sink (docs/ANALYSIS.md §8): the sim.* counters,
  /// derived from each run's SimMetrics at run end (sim::add_sim_counters),
  /// so the sink selects no engine path. nullptr (the default) is a strict
  /// no-op: the event loop touches no metric either way. The sink is
  /// single-threaded: give each concurrent simulation its own shard
  /// (exp::BatchRunner does this automatically).
  obs::Sink* sink = nullptr;
  /// Optional adaptive degraded-mode controller (rt/health.hpp). The
  /// engine re-arms it at run start (begin_run over the static decisions),
  /// feeds it every resolved offload, and consults it at each job release
  /// boundary: the released job runs under the controller's current
  /// vector, while in-flight jobs keep the vector they were released with
  /// (docs/ANALYSIS.md §10). nullptr (the default) keeps the engine on the
  /// static vector with zero overhead and bit-identical results to the
  /// seed engine (tests/support/reference_engine.hpp). The controller is
  /// stateful and single-threaded: one per concurrent simulation
  /// (exp::ScenarioSpec::adaptive replicates from a config prototype).
  health::ModeController* controller = nullptr;
};

/// Per-(task, level) offload request shape handed to the response model.
/// compute_time is the kernel time on the server, payload_bytes the uplink
/// size. Indexed as profile[task][level]; an empty profile or empty row
/// falls back to zero compute/payload (fine for distribution-only models).
using RequestProfile = std::vector<std::vector<server::Request>>;

struct SimResult {
  SimMetrics metrics;
  Trace trace;
};

/// Runs the simulation. `decisions[i]` applies to `tasks[i]`; the response
/// model is shared by all offloads (it is the server). The model is used
/// in non-decreasing send-time order as required by stateful models.
///
/// One-shot wrapper over the reusable zero-allocation SimEngine
/// (engine.hpp, docs/ANALYSIS.md §9); callers running many simulations
/// should hold a SimEngine per worker so its buffers amortize.
SimResult simulate(const core::TaskSet& tasks, const core::DecisionVector& decisions,
                   server::ResponseModel& server, const SimConfig& config,
                   const RequestProfile& profile = {});

}  // namespace rt::sim
