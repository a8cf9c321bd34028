// The one simulation driver of the protocol core (see core_runner.hpp),
// and SimEngine over it (see engine.hpp for the design contract).
//
// Bit-identical parity with tests/support/reference_engine.cpp is
// load-bearing: the core's handlers (protocol_core.hpp) draw RNG values,
// queue events, and record trace/metric updates in exactly the seed
// engine's order, and the driver only decides where events come from. The
// only degrees of freedom taken are representational: d-ary heaps instead
// of std::priority_queue, releases apart from the other events (from a
// heap of each task's next release, or a kept schedule), each offload's
// job carried in its heap entry instead of a token map, and the one armed
// slice end in a register.

#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sim/core_runner.hpp"
#include "util/dary_heap.hpp"

namespace rt::sim {

namespace detail {

SimResult CoreRunner::simulate(const core::TaskSet& tasks,
                               const core::DecisionVector& decisions,
                               server::ResponseModel& server, const SimConfig& config,
                               const RequestProfile& profile) {
  reset(tasks, decisions, config, profile);
  stats_ = EngineStats{};
  begin(0);
  server_ = &server;
  run(kNone, stats_.events_processed);
  finish();
  stats_.pool_slots_peak = pool_slots_peak_;
  stats_.pool_slots_capacity = pool_.size();
  SimResult result;
  result.metrics = std::move(metrics_);
  result.trace = std::move(trace_);
  return result;
}

Skeleton CoreRunner::record(const core::TaskSet& tasks,
                            const core::DecisionVector& decisions,
                            const SimConfig& config, const RequestProfile& profile) {
  reset(tasks, decisions, config, profile);
  sk_ = Skeleton{};
  begin(0);
  recording_ = true;
  std::uint64_t events = 0;
  run(kNone, events);
  recording_ = false;
  // A job still running holds the CPU, and is charged, up to the
  // horizon, like the serial engine's final advance.
  if (const SubJob* sj = running_subjob()) {
    sk_.segments.push_back(
        SkelSegment{seg_start_, horizon_end_.ns(), sj->priority_key, sj->seq});
  }
  finish();
  sk_.base = std::move(metrics_);
  return std::move(sk_);
}

void CoreRunner::open(std::int64_t t0, const std::vector<Flight>& flights,
                      const std::vector<Flight>& reuse, const Rng& rng,
                      server::ResponseModel& server, std::vector<TaskMetrics>& metrics) {
  resume_idle(TimePoint{t0});
  metrics_.per_task.swap(metrics);
  metrics_.cpu_busy_ns = 0;
  metrics_.context_switches = 0;
  begin(t0);
  reuse_ = reuse;
  rng_ = rng;
  server_ = &server;
  for (const Flight& f : flights) {
    const Key key{f.time_ns, f.send_ns,
                  (2 * std::uint64_t{f.rank}) << kSeqBits | event_seq_++};
    heap_push(events_, Event{key, f.deadline_ns, 0, f.task, 0, f.timer});
    timers_ += f.timer && f.time_ns < horizon_end_.ns();
  }
}

void CoreRunner::close(std::vector<TaskMetrics>& metrics, Rng& rng) {
  metrics_.per_task.swap(metrics);
  rng = rng_;
}

/// Empties the event sources and points the releases at the first one at
/// or after t0.
void CoreRunner::begin(std::int64_t t0) {
  recording_ = false;
  events_.clear();
  event_seq_ = 0;
  timers_ = 0;
  slice_key_ = Key{};
  instant_ = kNever;
  released_ = 0;
  reuse_ = {};
  reuse_next_ = 0;
  const std::size_t n = tasks_->size();
  if (config_.release_policy == ReleasePolicy::kPeriodic) {
    bool same = schedule_horizon_ == horizon_end_.ns() && schedule_periods_.size() == n;
    for (std::size_t i = 0; same && i < n; ++i) {
      same = schedule_periods_[i] == task_cache()[i].period.ns();
    }
    if (same) {
      source_ = Source::kReplay;
      // Each task has released ceil(t / T) jobs before t = min(t0, H).
      const std::int64_t t = std::min(t0, schedule_horizon_);
      release_at_.resize(n);
      next_release_ = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t period = schedule_periods_[i];
        const std::int64_t before = t > 0 ? (t - 1) / period + 1 : 0;
        release_at_[i] = before * period;
        next_release_ += static_cast<std::size_t>(before);
      }
      release_key_ = scheduled_key(next_release_);
      return;
    }
    source_ = Source::kBuild;
    schedule_.clear();
    schedule_horizon_ = kNever;
    schedule_periods_.resize(n);
    for (std::size_t i = 0; i < n; ++i) schedule_periods_[i] = task_cache()[i].period.ns();
  } else {
    source_ = Source::kSporadic;
  }
  if (t0 != 0) throw std::logic_error("simulate: a window opened without a schedule");
  next_.clear();  // in (time, push instant, rank) order, so a heap
  for (std::uint32_t i = 0; i < n; ++i) next_.push_back(Next{0, kNever, {i, i}});
  release_key_ = key_of(next_.front());
}

/// Pops the next release and queues the task's next one.
void CoreRunner::pop_release() {
  if (now_.ns() != instant_) {
    instant_ = now_.ns();
    released_ = 0;
  }
  const std::uint32_t rank = released_++;
  if (source_ == Source::kReplay) {
    pop_.task = schedule_[next_release_++].task;
    (void)release(pop_.task, now_);
    release_at_[pop_.task] += schedule_periods_[pop_.task];
    release_key_ = scheduled_key(next_release_);
    return;
  }
  pop_.task = next_.front().r.task;
  if (source_ == Source::kBuild) schedule_.push_back(next_.front().r);
  next_.front() = Next{release(pop_.task, now_).ns(), now_.ns(), {pop_.task, rank}};
  heap_sift_down(next_, 0);
  release_key_ = key_of(next_.front());
}

std::int64_t CoreRunner::run(std::int64_t must_pass, std::uint64_t& events) {
  std::int64_t last = now_.ns() - 1;  // the last instant stepped
  for (;;) {
    // The next event: the armed slice end, the next release or the
    // earliest offload.
    enum { kSlice, kRelease, kOffload } next = kSlice;
    const Key* key = &slice_key_;
    if (release_key_ < *key) {
      next = kRelease;
      key = &release_key_;
    }
    if (!events_.empty() && events_[0].key < *key) {
      next = kOffload;
      key = &events_[0].key;
    }
    const std::int64_t t = key->time;
    // Half-open horizon [0, H): events at exactly H belong to the next
    // window and are dropped.
    if (t >= horizon_end_.ns()) break;
    if (last >= must_pass && t > last && reuse_next_ == reuse_.size() && timers_ == 0 &&
        running_subjob() == nullptr) {
      return last + 1;
    }
    if (recording_) begin_pop(t, last);
    last = t;
    ++events;
    advance_to(TimePoint{t});
    if (next == kSlice) {
      slice_key_.time = kNone;
      const std::uint64_t misses =
          recording_ ? metrics_.per_task[ran_.task].deadline_misses : 0;
      if (!slice_end()) {
        throw std::logic_error("simulate: live slice-end without a finished job");
      }
      if (recording_) {
        pop_.flags = static_cast<std::uint8_t>(
            kCompletion | (ran_.phase == Phase::kSetup ? kSetupDone : kLocalDone) |
            (metrics_.per_task[ran_.task].deadline_misses != misses ? kMissed : 0));
      }
    } else if (next == kRelease) {
      pop_release();
    } else {
      const Event ev = events_[0];
      heap_pop(events_);
      timers_ -= ev.timer;
      const Offload job{TimePoint{ev.deadline}, TimePoint{ev.key.pushed}, ev.job_id,
                        ev.task, ev.mode};
      // A timer pops at exactly send + R, so the wait is R for a timer.
      resolve(job, !ev.timer, now_ - job.send);
    }
    if (recording_) {
      const std::uint64_t switches = metrics_.context_switches;
      dispatch();
      end_pop(switches);
    } else {
      dispatch();
    }
  }
  // The running sub-job holds the CPU up to the horizon.
  advance_to(horizon_end_);
  // Every release before the horizon has popped.
  if (source_ == Source::kBuild) schedule_horizon_ = horizon_end_.ns();
  return kNever;
}

void CoreRunner::in_flight(std::vector<Flight>& out) {
  constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;
  std::sort(events_.begin(), events_.end(), [](const Event& a, const Event& b) {
    return (a.key.order & kSeqMask) < (b.key.order & kSeqMask);
  });
  out.clear();
  for (const Event& e : events_) {
    if (e.key.time >= horizon_end_.ns()) continue;
    out.push_back(Flight{e.key.time, e.key.pushed, e.deadline, e.task,
                         static_cast<std::uint32_t>((e.key.order >> kSeqBits) / 2),
                         e.timer, false});
  }
}

void CoreRunner::send_offload(const Offload& job, const TaskCache& tc) {
  if (recording_) {
    sk_.draws.push_back(SkelDraw{job.send.ns(), tc.response_time.ns(),
                                 job.job_deadline.ns(), sk_.idle_starts.back(),
                                 job.task});
    return;
  }
  Duration response;
  if (reuse_next_ < reuse_.size()) {
    const Flight& u = reuse_[reuse_next_++];
    if (u.send_ns != now_.ns() || u.task != job.task) {
      throw std::logic_error("simulate: a window left the skeleton early");
    }
    response = u.timer ? server::kNoResponse : Duration::nanoseconds(u.time_ns - u.send_ns);
  } else {
    server::Request req = tc.req;
    req.send_time = now_;
    response = server_->sample(req, rng_);
    if (response.is_negative()) throw std::domain_error(kNegativeResponse);
    if (response != server::kNoResponse) {
      auto& tm = metrics_.per_task[job.task];
      tm.observed_response_ms.add(response);
      if (response > tc.response_time) ++tm.late_results;
    }
  }
  // A timely reply (response <= R, kNoResponse being above every R) pops
  // before its compensation timer would, and resolves the job: the timer
  // is never queued.
  const bool timer = response > tc.response_time;
  const std::int64_t at = (now_ + (timer ? tc.response_time : response)).ns();
  heap_push(events_,
            Event{push_key(at), job.job_deadline.ns(), job.job_id, job.task, job.mode, timer});
  stats_.in_flight_peak = std::max(stats_.in_flight_peak, events_.size());
  timers_ += timer && at < horizon_end_.ns();
}

// ---- recording a skeleton pop ----

/// Before the pop at t: the sub-job running into it (seq 0: idle), and
/// the instant, if the CPU was idle before its first pop.
void CoreRunner::begin_pop(std::int64_t t, std::int64_t last) {
  const SubJob* ran = running_subjob();
  ran_ = ran != nullptr ? *ran : SubJob{};
  if (ran == nullptr && t != last) sk_.idle_starts.push_back(t);
  pop_ = SkelPop{t, 0, kNoSlot, ran_.task, 0};
}

/// After the pop's dispatch: closes the running segment if the sub-job
/// changed, and appends the pop.
void CoreRunner::end_pop(std::uint64_t switches) {
  const SubJob* runs = running_subjob();
  if ((runs != nullptr ? runs->seq : 0) != ran_.seq) {
    if (ran_.seq != 0) {
      sk_.segments.push_back(
          SkelSegment{seg_start_, pop_.time_ns, ran_.priority_key, ran_.seq});
    }
    seg_start_ = pop_.time_ns;
  }
  // The running segment is the next one appended: every segment
  // started earlier has already ended.
  pop_.releases = job_counter_;
  if (runs != nullptr) {
    pop_.seg_after = static_cast<std::uint32_t>(sk_.segments.size());
  }
  if (metrics_.context_switches != switches) pop_.flags |= kSwitched;
  sk_.pops.push_back(pop_);
}

}  // namespace detail

SimEngine::SimEngine() : core_(std::make_unique<detail::CoreRunner>()) {}
SimEngine::~SimEngine() = default;
SimEngine::SimEngine(SimEngine&&) noexcept = default;
SimEngine& SimEngine::operator=(SimEngine&&) noexcept = default;

SimResult SimEngine::run(const core::TaskSet& tasks,
                         const core::DecisionVector& decisions,
                         server::ResponseModel& server, const SimConfig& config,
                         const RequestProfile& profile) {
  SimResult result = core_->simulate(tasks, decisions, server, config, profile);
  add_sim_counters(config.sink, result.metrics, config.controller != nullptr);
  return result;
}

const EngineStats& SimEngine::stats() const { return core_->stats(); }

}  // namespace rt::sim
