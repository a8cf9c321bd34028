// Seed event engine (see reference_engine.hpp). Kept as the bit-identical
// oracle for the zero-allocation production engine; intentionally simple.

#include "sim/reference_engine.hpp"

#include <algorithm>
#include <deque>
#include <queue>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "core/deadline.hpp"

namespace rt::sim {

namespace {

enum class Phase { kLocal, kSetup, kSecond };

struct SubJob {
  std::size_t task = 0;
  std::uint64_t job_id = 0;
  Phase phase = Phase::kLocal;
  TimePoint release;       // of the *job*
  TimePoint abs_deadline;  // of this sub-job
  TimePoint job_deadline;  // release + D
  Duration remaining;
  bool via_compensation = false;
  std::uint64_t seq = 0;  // FIFO tie-break
  /// Dispatch order: EDF uses the absolute deadline in ns, fixed priority
  /// the task's deadline-monotonic rank. Smaller runs first.
  std::int64_t priority_key = 0;
  bool done = false;
};

struct ReadyCmp {
  bool operator()(const SubJob* a, const SubJob* b) const {
    if (a->priority_key != b->priority_key) return a->priority_key < b->priority_key;
    return a->seq < b->seq;
  }
};

enum class EventKind { kRelease, kSliceEnd, kOffloadArrival, kTimer };

struct Event {
  TimePoint time;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::kRelease;
  std::uint64_t arg = 0;  // task index, slice generation, or offload token
};

struct EventCmp {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;  // min-heap
    return a.seq > b.seq;
  }
};

struct InFlight {
  std::size_t task = 0;
  std::uint64_t job_id = 0;
  TimePoint release;
  TimePoint job_deadline;
  bool resolved = false;
};

class Engine {
 public:
  Engine(const core::TaskSet& tasks, const core::DecisionVector& decisions,
         server::ResponseModel& server, const SimConfig& config,
         const RequestProfile& profile)
      : tasks_(tasks), decisions_(decisions), server_(server), config_(config),
        profile_(profile), rng_(config.seed), trace_(config.trace_capacity) {
    if (tasks_.size() != decisions_.size()) {
      throw std::invalid_argument("simulate: decisions arity mismatch");
    }
    core::validate_task_set(tasks_);
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      const auto& d = decisions_[i];
      if (d.offloaded()) {
        if ((!tasks_[i].setup_wcet_per_level.empty() &&
             d.level >= tasks_[i].setup_wcet_per_level.size()) ||
            (!tasks_[i].compensation_wcet_per_level.empty() &&
             d.level >= tasks_[i].compensation_wcet_per_level.size())) {
          throw std::invalid_argument("simulate: decision level out of range");
        }
        if (d.response_time >= tasks_[i].deadline) {
          throw std::invalid_argument(
              "simulate: R >= D leaves no room for compensation");
        }
      }
    }
    metrics_.per_task.resize(tasks_.size());
    // Deadline-monotonic ranks for the fixed-priority policy.
    dm_rank_.resize(tasks_.size());
    std::vector<std::size_t> order(tasks_.size());
    for (std::size_t i = 0; i < tasks_.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return tasks_[a].deadline < tasks_[b].deadline;
    });
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      dm_rank_[order[rank]] = static_cast<std::int64_t>(rank);
    }
  }

  std::int64_t priority_key_for(const SubJob& sj) const {
    return config_.scheduler_policy == SchedulerPolicy::kEdf
               ? sj.abs_deadline.ns()
               : dm_rank_[sj.task];
  }

  SimResult run() {
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      push_event(TimePoint::zero(), EventKind::kRelease, i);
    }
    while (!events_.empty()) {
      const Event ev = events_.top();
      // Half-open horizon [0, H): events at exactly H belong to the next
      // window and are dropped.
      if (ev.time >= TimePoint::zero() + config_.horizon) break;
      events_.pop();
      advance_running(ev.time);
      now_ = ev.time;
      handle(ev);
      dispatch();
    }
    // The running sub-job holds the CPU up to the horizon.
    advance_running(TimePoint::zero() + config_.horizon);
    metrics_.end_time = TimePoint::zero() + config_.horizon;
    metrics_.trace_truncated = trace_.truncated();
    SimResult result;
    result.metrics = std::move(metrics_);
    result.trace = std::move(trace_);
    return result;
  }

 private:
  void push_event(TimePoint time, EventKind kind, std::uint64_t arg) {
    events_.push(Event{time, event_seq_++, kind, arg});
  }

  Duration actual_exec(Duration wcet) {
    if (wcet.ns() <= 0) return Duration::zero();
    switch (config_.exec_policy) {
      case ExecTimePolicy::kAlwaysWcet:
        return wcet;
      case ExecTimePolicy::kUniformFraction: {
        const auto lo = static_cast<std::int64_t>(
            config_.exec_min_fraction * static_cast<double>(wcet.ns()));
        return Duration::nanoseconds(rng_.uniform_int(std::max<std::int64_t>(lo, 0),
                                                      wcet.ns()));
      }
    }
    return wcet;
  }

  void advance_running(TimePoint to) {
    if (running_ == nullptr) return;
    const Duration elapsed = to - dispatch_time_;
    if (elapsed.is_negative()) {
      throw std::logic_error("simulate: time went backwards");
    }
    running_->remaining -= elapsed;
    if (running_->remaining.is_negative()) running_->remaining = Duration::zero();
    metrics_.cpu_busy_ns += elapsed.ns();
    dispatch_time_ = to;
  }

  void dispatch() {
    SubJob* top = ready_.empty() ? nullptr : *ready_.begin();
    // Idempotence: if the EDF choice is unchanged and a slice-end event is
    // already armed, its absolute time is still correct (remaining shrinks
    // exactly as the clock advances), so re-arming would only breed events.
    if (top == running_ && slice_armed_) return;
    if (top != running_) {
      if (running_ != nullptr && !running_->done) {
        trace_.record(now_, TraceKind::kPreempt, running_->task, running_->job_id);
      }
      running_ = top;
      dispatch_time_ = now_;
      if (running_ != nullptr) {
        trace_.record(now_, TraceKind::kDispatch, running_->task, running_->job_id);
        ++metrics_.context_switches;
        // Charge the switch cost to the incoming sub-job: extra demand the
        // analysis covers by WCET inflation.
        running_->remaining += config_.context_switch_overhead;
      }
    }
    ++slice_generation_;  // invalidates any previously armed slice-end
    slice_armed_ = false;
    if (running_ != nullptr) {
      push_event(now_ + running_->remaining, EventKind::kSliceEnd, slice_generation_);
      slice_armed_ = true;
    }
  }

  void handle(const Event& ev) {
    switch (ev.kind) {
      case EventKind::kRelease: return handle_release(static_cast<std::size_t>(ev.arg));
      case EventKind::kSliceEnd: return handle_slice_end(ev.arg);
      case EventKind::kOffloadArrival: return handle_arrival(ev.arg);
      case EventKind::kTimer: return handle_timer(ev.arg);
    }
  }

  void handle_release(std::size_t task_idx) {
    const auto& task = tasks_[task_idx];
    const auto& decision = decisions_[task_idx];
    auto& tm = metrics_.per_task[task_idx];
    ++tm.released;
    const std::uint64_t job_id = ++job_counter_;
    trace_.record(now_, TraceKind::kRelease, task_idx, job_id);

    SubJob sj;
    sj.task = task_idx;
    sj.job_id = job_id;
    sj.release = now_;
    sj.job_deadline = now_ + task.deadline;
    sj.seq = ++subjob_seq_;
    if (!decision.offloaded()) {
      sj.phase = Phase::kLocal;
      sj.abs_deadline = sj.job_deadline;
      sj.remaining = actual_exec(task.local_wcet);
    } else {
      sj.phase = Phase::kSetup;
      const core::SplitDeadlines split =
          config_.deadline_policy == DeadlinePolicy::kSplit
              ? core::split_deadlines(task, decision.response_time, decision.level)
              : core::naive_deadlines(task, decision.response_time);
      // Under fixed priority, the split sub-deadline is an EDF artifact:
      // dispatch ignores deadlines and only the job deadline is a contract,
      // so the setup phase carries the job deadline for miss accounting.
      sj.abs_deadline =
          config_.scheduler_policy == SchedulerPolicy::kEdf
              ? now_ + split.d1
              : sj.job_deadline;
      sj.remaining = actual_exec(task.setup_for_level(decision.level));
    }
    sj.priority_key = priority_key_for(sj);
    pool_.push_back(sj);
    ready_.insert(&pool_.back());

    // Next release.
    Duration gap = task.period;
    if (config_.release_policy == ReleasePolicy::kSporadic) {
      gap = gap + gap.scaled(rng_.uniform(0.0, config_.sporadic_slack));
    }
    push_event(now_ + gap, EventKind::kRelease, task_idx);
  }

  void handle_slice_end(std::uint64_t generation) {
    if (generation != slice_generation_) return;  // superseded by a dispatch
    slice_armed_ = false;
    if (running_ == nullptr || running_->remaining.is_positive()) {
      throw std::logic_error("simulate: live slice-end without a finished job");
    }
    SubJob* sj = running_;
    ready_.erase(sj);
    sj->done = true;
    running_ = nullptr;
    complete_subjob(sj);
  }

  void note_miss(const SubJob& sj, bool final_phase) {
    auto& tm = metrics_.per_task[sj.task];
    ++tm.deadline_misses;
    trace_.record(now_, TraceKind::kDeadlineMiss, sj.task, sj.job_id);
    if (config_.abort_on_deadline_miss) {
      throw std::logic_error("simulate: deadline miss for task '" +
                             tasks_[sj.task].name + "' at " + now_.to_string() +
                             (final_phase ? " (job deadline)" : " (sub-job deadline)"));
    }
  }

  void complete_subjob(SubJob* sj) {
    const auto& task = tasks_[sj->task];
    const auto& decision = decisions_[sj->task];
    auto& tm = metrics_.per_task[sj->task];

    if (sj->phase == Phase::kSetup) {
      if (now_ > sj->abs_deadline) note_miss(*sj, false);
      ++tm.offload_attempts;
      trace_.record(now_, TraceKind::kSetupDone, sj->task, sj->job_id);

      const std::uint64_t token = ++token_counter_;
      InFlight fl;
      fl.task = sj->task;
      fl.job_id = sj->job_id;
      fl.release = sj->release;
      fl.job_deadline = sj->job_deadline;
      in_flight_.emplace(token, fl);

      server::Request req;
      if (sj->task < profile_.size() &&
          decision.level < profile_[sj->task].size()) {
        req = profile_[sj->task][decision.level];
      }
      req.send_time = now_;
      req.stream_id = sj->task;
      const Duration response = server_.sample(req, rng_);
      if (response != server::kNoResponse) {
        tm.observed_response_ms.add(response.ms());
        if (response <= decision.response_time) {
          push_event(now_ + response, EventKind::kOffloadArrival, token);
        } else {
          ++tm.late_results;
        }
      }
      push_event(now_ + decision.response_time, EventKind::kTimer, token);
      return;
    }

    // Local or second phase: the job is complete.
    ++tm.completed;
    const bool missed = now_ > sj->job_deadline;
    if (missed) note_miss(*sj, true);
    trace_.record(now_, TraceKind::kJobComplete, sj->task, sj->job_id);

    if (missed) return;  // a late result earns nothing
    const double w = task.weight;
    if (sj->phase == Phase::kLocal) {
      ++tm.local_runs;
      tm.accrued_benefit += w * task.benefit.local_value();
    } else if (sj->via_compensation) {
      tm.accrued_benefit += w * task.benefit.local_value();
    } else {
      tm.accrued_benefit +=
          config_.benefit_semantics == BenefitSemantics::kQualityValue
              ? w * task.benefit
                        .point(std::min(decision.level, task.benefit.size() - 1))
                        .value
              : w;
    }
  }

  void release_second_phase(const InFlight& fl, bool via_compensation) {
    const auto& task = tasks_[fl.task];
    const auto& decision = decisions_[fl.task];
    SubJob sj;
    sj.task = fl.task;
    sj.job_id = fl.job_id;
    sj.phase = Phase::kSecond;
    sj.release = fl.release;
    sj.job_deadline = fl.job_deadline;
    sj.abs_deadline = fl.job_deadline;
    sj.via_compensation = via_compensation;
    sj.seq = ++subjob_seq_;
    sj.remaining = via_compensation
                       ? actual_exec(task.compensation_for_level(decision.level))
                       : actual_exec(task.post_wcet);
    sj.priority_key = priority_key_for(sj);
    pool_.push_back(sj);
    ready_.insert(&pool_.back());
    // A zero-length sub-job still flows through dispatch: its slice event
    // fires immediately at the current time.
  }

  void handle_arrival(std::uint64_t token) {
    auto it = in_flight_.find(token);
    if (it == in_flight_.end() || it->second.resolved) return;
    it->second.resolved = true;
    auto& tm = metrics_.per_task[it->second.task];
    ++tm.timely_results;
    trace_.record(now_, TraceKind::kResultTimely, it->second.task,
                  it->second.job_id);
    release_second_phase(it->second, /*via_compensation=*/false);
  }

  void handle_timer(std::uint64_t token) {
    auto it = in_flight_.find(token);
    if (it == in_flight_.end()) return;
    if (it->second.resolved) {
      in_flight_.erase(it);
      return;
    }
    it->second.resolved = true;
    auto& tm = metrics_.per_task[it->second.task];
    ++tm.compensations;
    trace_.record(now_, TraceKind::kTimerFired, it->second.task,
                  it->second.job_id);
    release_second_phase(it->second, /*via_compensation=*/true);
    in_flight_.erase(it);
  }

  const core::TaskSet& tasks_;
  const core::DecisionVector& decisions_;
  server::ResponseModel& server_;
  SimConfig config_;
  RequestProfile profile_;
  Rng rng_;
  Trace trace_;
  SimMetrics metrics_;

  TimePoint now_;
  std::vector<std::int64_t> dm_rank_;
  std::priority_queue<Event, std::vector<Event>, EventCmp> events_;
  std::deque<SubJob> pool_;  // stable addresses for ready-set pointers
  std::set<SubJob*, ReadyCmp> ready_;
  SubJob* running_ = nullptr;
  TimePoint dispatch_time_;
  std::uint64_t slice_generation_ = 0;
  bool slice_armed_ = false;
  std::uint64_t event_seq_ = 0;
  std::uint64_t subjob_seq_ = 0;
  std::uint64_t job_counter_ = 0;
  std::uint64_t token_counter_ = 0;
  std::unordered_map<std::uint64_t, InFlight> in_flight_;

};

}  // namespace

SimResult simulate_reference(const core::TaskSet& tasks, const core::DecisionVector& decisions,
                   server::ResponseModel& server, const SimConfig& config,
                   const RequestProfile& profile) {
  Engine engine(tasks, decisions, server, config, profile);
  return engine.run();
}

}  // namespace rt::sim
