#pragma once
// The paper's per-job protocol as one state machine with two drivers: the
// simulation driver, CoreRunner (core_runner.hpp), behind SimEngine and the
// batch engine's skeleton and resync windows, and OffloadRuntime
// (runtime/offload_runtime.cpp) on a real clock.
//
// Per job: release under the current mode's decision vector; the setup
// (or local) sub-job runs under its split deadline d1; setup completion
// sends the request; the driver resolves it as a timely reply or a
// compensation timer at send + R; the second sub-job then runs to the job
// deadline, all under preemptive EDF (or deadline-monotonic fixed
// priority) over one ready queue. Miss and benefit accounting happen at
// completion.
//
// ProtocolCore<Driver> is a CRTP base: the driver derives from it and
// supplies only where events come from, with no virtual call on the event
// path:
//
//   static constexpr const char* kName;  // error prefix
//   void arm_slice(TimePoint end);   // slice end of the running sub-job
//   void cancel_slice();             // the armed slice end is void
//   void send_offload(const Offload& job, const detail::TaskCache& tc);
//
// and calls, for each of its events, advance_to(t), one handler (release,
// slice_end or resolve), then dispatch(). Every send ends in exactly one
// resolve() unless the horizon comes first, except while the batch
// engine records its skeleton: sends become draws, and their posts are
// left to each replication's replay. Its resync windows re-enter a run at
// an idle instant (resume_idle).
//
// The handlers draw RNG values, record trace events and touch metrics in
// exactly the order of the seed engine (tests/support/reference_engine.cpp),
// which is what keeps SimEngine bit-identical to it.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/decision.hpp"
#include "core/task.hpp"
#include "rt/health.hpp"
#include "sim/engine_detail.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/dary_heap.hpp"
#include "util/rng.hpp"

namespace rt::sim {

/// An offloaded job between request send and resolution; the driver keeps
/// it in its own in-flight table and hands it back to resolve().
struct Offload {
  TimePoint job_deadline;
  TimePoint send;  ///< request send instant (protocol time)
  std::uint64_t job_id = 0;
  std::uint32_t task = 0;
  std::uint8_t mode = 0;  ///< the decision vector the job was released under
};

namespace detail {

enum class Phase : std::uint8_t { kLocal, kSetup, kSecond };

constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

/// Laid out to fit one cache line (64 bytes): every event touches at most
/// one of these, and the pool is read through random slot indices.
struct SubJob {
  TimePoint abs_deadline;  // of this sub-job
  TimePoint job_deadline;  // release + D
  Duration remaining;
  std::uint64_t job_id = 0;
  std::uint64_t seq = 0;  // FIFO tie-break
  /// Dispatch order: EDF uses the absolute deadline in ns, fixed priority
  /// the task's deadline-monotonic rank. Smaller runs first.
  std::int64_t priority_key = 0;
  std::uint32_t task = 0;
  Phase phase = Phase::kLocal;
  /// Decision vector this job was released under (0 normal, 1 degraded);
  /// always 0 without a mode controller. Carried so every later phase of
  /// the job resolves WCETs/benefits against its release-time decision.
  std::uint8_t mode = 0;
  bool via_compensation = false;
};
static_assert(sizeof(SubJob) <= 64, "SubJob must stay within a cache line");

}  // namespace detail

template <typename Driver>
class ProtocolCore {
 protected:
  using SubJob = detail::SubJob;
  using TaskCache = detail::TaskCache;
  static constexpr std::uint32_t kNoSlot = detail::kNoSlot;

  // ---- run setup ----

  /// Validates the inputs and re-seeds every piece of per-run state;
  /// buffers keep their capacity across runs.
  void reset(const core::TaskSet& tasks, const core::DecisionVector& decisions,
             const SimConfig& config, const RequestProfile& profile) {
    tasks_ = &tasks;
    config_ = config;
    horizon_end_ = TimePoint::zero() + config.horizon;
    edf_ = config.scheduler_policy == SchedulerPolicy::kEdf;
    rng_ = Rng(config.seed);
    trace_.reset(config.trace_capacity);
    metrics_ = SimMetrics{};

    pool_.clear();
    pool_free_.clear();
    ready_.clear();
    now_ = TimePoint{};
    running_ = kNoSlot;
    dispatch_time_ = TimePoint{};
    slice_armed_ = false;
    subjob_seq_ = 0;
    job_counter_ = 0;
    pool_live_ = 0;
    pool_slots_peak_ = 0;

    if (tasks.size() != decisions.size()) {
      throw std::invalid_argument(std::string(Driver::kName) +
                                  ": decisions arity mismatch");
    }
    core::validate_task_set(tasks);
    detail::validate_decisions(tasks, decisions, Driver::kName);
    metrics_.per_task.resize(tasks.size());
    // Deadline-monotonic ranks (stable on the relative deadline) for the
    // fixed-priority policy; rank 0 is the highest priority.
    std::vector<std::size_t> order(tasks.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return tasks[a].deadline < tasks[b].deadline;
    });
    dm_rank_.resize(tasks.size());
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      dm_rank_[order[rank]] = static_cast<std::int64_t>(rank);
    }
    // Per-(task, decision) constants, hoisted out of the event loop. Each
    // cached value is computed by the same expression the reference engine
    // evaluates per job, so the arithmetic (and hence every metric bit) is
    // unchanged.
    detail::fill_task_cache(tcache_, tasks, decisions, config_, profile);
    // Mode controller: re-arm it over the static (normal) vector and build
    // the degraded vector's cache twin. The degraded vector goes through
    // the same validation as the primary one -- a controller must not be
    // able to smuggle in an unsimulatable decision.
    controller_ = config_.controller;
    cur_mode_ = 0;
    mode_since_ = TimePoint::zero();
    tcache_degraded_.clear();
    if (controller_ != nullptr) {
      controller_->begin_run(decisions, TimePoint::zero());
      const core::DecisionVector& degraded = controller_->degraded_decisions();
      if (degraded.size() != tasks.size()) {
        throw std::invalid_argument(std::string(Driver::kName) +
                                    ": degraded decisions arity mismatch");
      }
      detail::validate_decisions(tasks, degraded, Driver::kName);
      detail::fill_task_cache(tcache_degraded_, tasks, degraded, config_, profile);
    }
  }

  /// Re-enters the run of the last reset() at `at`, with the CPU idle and
  /// no sub-job queued -- the state of any run whose schedule has gone
  /// quiescent. The driver re-seeds its own pending events, and the
  /// metrics are left as they are.
  void resume_idle(TimePoint at) {
    pool_.clear();
    pool_free_.clear();
    ready_.clear();
    pool_live_ = 0;
    now_ = at;
    running_ = kNoSlot;
    dispatch_time_ = at;
    slice_armed_ = false;
  }

  /// Closes the books at the horizon.
  void finish() {
    if (cur_mode_ != 0) {
      metrics_.time_in_degraded_ns += (horizon_end_ - mode_since_).ns();
    }
    metrics_.end_time = horizon_end_;
    metrics_.trace_truncated = trace_.truncated();
  }

  // ---- per-event steps ----

  /// Charges the running sub-job for the time up to `to`, which becomes now.
  void advance_to(TimePoint to) {
    if (running_ != kNoSlot) {
      const Duration elapsed = to - dispatch_time_;
      if (elapsed.is_negative()) {
        fail("time went backwards");
      }
      SubJob& sj = pool_[running_];
      sj.remaining -= elapsed;
      if (sj.remaining.is_negative()) sj.remaining = Duration::zero();
      metrics_.cpu_busy_ns += elapsed.ns();
      dispatch_time_ = to;
    }
    now_ = to;
  }

  /// Runs the ready-queue minimum and keeps exactly one slice end armed
  /// for it.
  void dispatch() {
    const std::uint32_t top = ready_.empty() ? kNoSlot : ready_[0].slot;
    // Idempotence: if the choice is unchanged and a slice end is already
    // armed, its absolute time is still correct (remaining shrinks exactly
    // as the clock advances), so re-arming would only breed events.
    if (top == running_ && slice_armed_) return;
    if (top != running_) {
      // Still running means preempted: slice_end() clears running_ first.
      if (running_ != kNoSlot) {
        trace_.record(now_, TraceKind::kPreempt, pool_[running_].task,
                      pool_[running_].job_id);
      }
      running_ = top;
      dispatch_time_ = now_;
      if (running_ != kNoSlot) {
        SubJob& sj = pool_[running_];
        trace_.record(now_, TraceKind::kDispatch, sj.task, sj.job_id);
        ++metrics_.context_switches;
        // Charge the switch cost to the incoming sub-job: extra demand the
        // analysis covers by WCET inflation.
        sj.remaining += config_.context_switch_overhead;
      }
    }
    if (slice_armed_) driver().cancel_slice();
    slice_armed_ = false;
    if (running_ != kNoSlot) {
      driver().arm_slice(now_ + pool_[running_].remaining);
      slice_armed_ = true;
    }
  }

  /// Releases a job of `task_idx` whose protocol release instant is `at`
  /// (now, for the simulator) and returns the instant of the next release.
  TimePoint release(std::size_t task_idx, TimePoint at) {
    if (controller_ != nullptr) maybe_switch_mode();
    const TaskCache& tc = cache_of(cur_mode_)[task_idx];
    auto& tm = metrics_.per_task[task_idx];
    ++tm.released;
    const std::uint64_t job_id = ++job_counter_;
    trace_.record(now_, TraceKind::kRelease, task_idx, job_id);

    SubJob sj;
    sj.task = static_cast<std::uint32_t>(task_idx);
    sj.job_id = job_id;
    sj.job_deadline = at + tc.deadline;
    sj.mode = cur_mode_;
    if (!tc.offloaded) {
      sj.phase = detail::Phase::kLocal;
      sj.abs_deadline = sj.job_deadline;
    } else {
      sj.phase = detail::Phase::kSetup;
      // Under fixed priority, the split sub-deadline is an EDF artifact:
      // dispatch ignores deadlines and only the job deadline is a contract,
      // so the setup phase carries the job deadline for miss accounting.
      sj.abs_deadline = edf_ ? at + tc.d1 : sj.job_deadline;
    }
    push_subjob(sj, tc.exec_wcet);

    Duration gap = tc.period;
    if (config_.release_policy == ReleasePolicy::kSporadic) {
      gap = gap + gap.scaled(rng_.uniform(0.0, config_.sporadic_slack));
    }
    return at + gap;
  }

  /// The armed slice end fired. Returns false, leaving the slice disarmed
  /// for the next dispatch() to re-arm, when the running sub-job still has
  /// work left (a real clock can fire a timer a rounding step early).
  bool slice_end() {
    slice_armed_ = false;
    if (running_ == kNoSlot) {
      fail("slice end without a running job");
    }
    if (pool_[running_].remaining.is_positive()) return false;
    const std::uint32_t slot = running_;
    if (ready_.empty() || ready_[0].slot != slot) {
      // dispatch() always runs the ready-queue minimum, and any insert that
      // displaced it would have re-armed the slice; a mismatch here means
      // the heap invariant broke.
      fail("finished job is not the ready minimum");
    }
    heap_pop(ready_);
    running_ = kNoSlot;
    complete_subjob(slot);
    pool_release(slot);
    return true;
  }

  /// Resolves an offload: a timely reply releases post-processing, the
  /// compensation timer (fired at send + R) the compensation sub-job.
  /// `wait` is the request's latency as the mode controller sees it: the
  /// reply's, or the armed window R for a compensation.
  void resolve(const Offload& job, bool timely, Duration wait) {
    auto& tm = metrics_.per_task[job.task];
    if (timely) {
      ++tm.timely_results;
      trace_.record(now_, TraceKind::kResultTimely, job.task, job.job_id);
    } else {
      ++tm.compensations;
      trace_.record(now_, TraceKind::kTimerFired, job.task, job.job_id);
    }
    if (controller_ != nullptr) {
      controller_->on_outcome(job.task, timely, wait);
    }

    const TaskCache& tc = cache_of(job.mode)[job.task];
    SubJob sj;
    sj.task = job.task;
    sj.job_id = job.job_id;
    sj.mode = job.mode;
    sj.phase = detail::Phase::kSecond;
    sj.job_deadline = job.job_deadline;
    sj.abs_deadline = job.job_deadline;
    sj.via_compensation = !timely;
    // A zero-length sub-job still flows through dispatch: its slice end
    // fires immediately at the current time.
    push_subjob(sj, timely ? tc.post_wcet : tc.comp_wcet);
  }

  // ---- state the drivers read ----

  /// The running sub-job, or null when the CPU is idle.
  [[nodiscard]] const SubJob* running_subjob() const {
    return running_ == kNoSlot ? nullptr : &pool_[running_];
  }

  /// The per-(task, decision) constants reset() resolved for this run.
  [[nodiscard]] const std::vector<TaskCache>& task_cache() const { return tcache_; }

  const core::TaskSet* tasks_ = nullptr;
  SimConfig config_;
  TimePoint horizon_end_;
  TimePoint now_;
  Rng rng_{0};
  Trace trace_;
  SimMetrics metrics_;
  std::uint64_t job_counter_ = 0;
  std::size_t pool_slots_peak_ = 0;  ///< most sub-jobs live at once
  std::vector<SubJob> pool_;

 private:
  Driver& driver() { return static_cast<Driver&>(*this); }

  /// Throws std::logic_error; kept out of line so the hot handlers that
  /// check invariants stay small enough to inline.
  [[noreturn, gnu::cold, gnu::noinline]] static void fail(const char* what) {
    throw std::logic_error(std::string(Driver::kName) + ": " + what);
  }

  /// The cache of the vector a job with `mode` was released under.
  [[nodiscard]] const std::vector<TaskCache>& cache_of(std::uint8_t mode) const {
    return mode != 0 ? tcache_degraded_ : tcache_;
  }

  /// Queues `sj` with an actual execution time drawn for `wcet`. Forced
  /// inline into its two callers, the per-job hot path.
  [[gnu::always_inline]] void push_subjob(SubJob sj, Duration wcet) {
    sj.seq = ++subjob_seq_;
    sj.remaining = actual_exec(wcet);
    sj.priority_key = edf_ ? sj.abs_deadline.ns() : dm_rank_[sj.task];
    const std::uint32_t slot = pool_alloc();
    pool_[slot] = sj;
    ready_push(slot);
  }

  Duration actual_exec(Duration wcet) {
    if (wcet.ns() <= 0) return Duration::zero();
    switch (config_.exec_policy) {
      case ExecTimePolicy::kAlwaysWcet:
        return wcet;
      case ExecTimePolicy::kUniformFraction: {
        const auto lo = static_cast<std::int64_t>(
            config_.exec_min_fraction * static_cast<double>(wcet.ns()));
        return Duration::nanoseconds(
            rng_.uniform_int(std::max<std::int64_t>(lo, 0), wcet.ns()));
      }
    }
    return wcet;
  }

  /// Applies the controller's verdict at a release boundary. Jobs already
  /// released (including their in-flight offloads) are untouched: they
  /// carry their mode in SubJob/Offload and finish under it.
  void maybe_switch_mode() {
    const auto mode = static_cast<std::uint8_t>(controller_->evaluate(now_));
    if (mode == cur_mode_) return;
    if (cur_mode_ != 0) {
      metrics_.time_in_degraded_ns += (now_ - mode_since_).ns();
    }
    cur_mode_ = mode;
    mode_since_ = now_;
    ++metrics_.mode_changes;
    trace_.record(now_, TraceKind::kModeChange, mode, metrics_.mode_changes);
  }

  void note_miss(const SubJob& sj) {
    ++metrics_.per_task[sj.task].deadline_misses;
    trace_.record(now_, TraceKind::kDeadlineMiss, sj.task, sj.job_id);
  }

  void complete_subjob(std::uint32_t slot) {
    // No pool slot is allocated below, so the reference stays valid.
    SubJob& sj = pool_[slot];
    const TaskCache& tc = cache_of(sj.mode)[sj.task];
    auto& tm = metrics_.per_task[sj.task];

    if (sj.phase == detail::Phase::kSetup) {
      if (now_ > sj.abs_deadline) note_miss(sj);
      ++tm.offload_attempts;
      trace_.record(now_, TraceKind::kSetupDone, sj.task, sj.job_id);
      driver().send_offload(
          Offload{sj.job_deadline, now_, sj.job_id, sj.task, sj.mode},
          tc);
      return;
    }

    // Local or second phase: the job is complete.
    ++tm.completed;
    const bool missed = now_ > sj.job_deadline;
    if (missed) note_miss(sj);
    trace_.record(now_, TraceKind::kJobComplete, sj.task, sj.job_id);

    if (missed) return;  // a late result earns nothing
    if (sj.phase == detail::Phase::kLocal) {
      ++tm.local_runs;
      tm.accrued_benefit += tc.local_benefit;
    } else if (sj.via_compensation) {
      tm.accrued_benefit += tc.local_benefit;
    } else {
      tm.accrued_benefit += tc.timely_benefit;
    }
  }

  // ---- sub-job slot pool ----

  std::uint32_t pool_alloc() {
    std::uint32_t slot;
    if (!pool_free_.empty()) {
      slot = pool_free_.back();
      pool_free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
    }
    ++pool_live_;
    pool_slots_peak_ = std::max(pool_slots_peak_, pool_live_);
    return slot;
  }

  void pool_release(std::uint32_t slot) {
    pool_free_.push_back(slot);
    --pool_live_;
  }

  // ---- ready queue: 4-ary min-heap on (priority_key, seq) ----

  void ready_push(std::uint32_t slot) {
    const SubJob& sj = pool_[slot];
    heap_push(ready_, detail::ReadyNode{sj.priority_key, sj.seq, slot});
  }

  // ---- persistent buffers (survive across runs) ----
  std::vector<std::uint32_t> pool_free_;
  std::vector<detail::ReadyNode> ready_;
  std::vector<std::int64_t> dm_rank_;
  std::vector<TaskCache> tcache_;
  /// Degraded-vector twin of tcache_; filled only when a mode controller
  /// is configured, and indexed through cache_of(mode).
  std::vector<TaskCache> tcache_degraded_;

  // ---- per-run state ----
  bool edf_ = true;
  std::uint32_t running_ = kNoSlot;
  TimePoint dispatch_time_;
  bool slice_armed_ = false;
  std::uint64_t subjob_seq_ = 0;
  std::size_t pool_live_ = 0;
  /// Degraded-mode controller state; inert (cur_mode_ stays 0) when
  /// controller_ is null, which keeps the static path bit-identical to
  /// the seed engine (tests/support/reference_engine.hpp).
  health::ModeController* controller_ = nullptr;
  std::uint8_t cur_mode_ = 0;
  TimePoint mode_since_;
};

}  // namespace rt::sim
