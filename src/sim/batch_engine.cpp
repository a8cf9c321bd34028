// Batched replication engine (see batch_engine.hpp for the contract).
//
// Parity argument, in one place. Under the skeleton preconditions (EDF,
// always-WCET, periodic releases, zero context-switch overhead, zero post
// WCET, no controller/sink/trace/abort) the serial engine's schedule of
// release/setup/local work cannot depend on the server draws as long as
// every draw is timely: the only sub-jobs whose timing depends on a draw
// are result posts, and those have zero length, so they occupy the CPU for
// an instant without delaying anything else. The skeleton run below IS that
// shared schedule; a replication only has to (a) draw the responses in the
// skeleton's request order -- the only RNG consumption in this
// configuration -- and (b) replay the zero-length posts against the
// skeleton's busy segments to reproduce the serial engine's context-switch
// count, completion bookkeeping and deadline checks.
//
// The replay refuses to guess whenever the serial outcome would hinge on
// event-queue push order (seq tie-breaks) it does not track:
//   * a result arrival at exactly the nanosecond of any skeleton event pop,
//   * two arrivals in one replication at the same nanosecond,
//   * an EDF key equal to the running/next segment's key,
//   * any non-timely draw (response > R or no response), which spawns a
//     compensation sub-job of nonzero length and perturbs the schedule.
// Each hazard bails that single replication out to the serial engine with
// the same derived seed. The skeleton itself is rejected up front when a
// completion lands on the same nanosecond as any release pop (then even
// the skeleton's tie-breaks could shift under replayed preemptions).

#include "sim/batch_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/engine_detail.hpp"
#include "util/dary_heap.hpp"
#include "util/rng.hpp"

namespace rt::sim {

namespace {

using detail::TaskCache;

constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
/// Segment key meaning "CPU idle": every pending post drains against it.
constexpr std::int64_t kIdleKey = std::numeric_limits<std::int64_t>::max();

/// One request send point of the skeleton, in serial draw order.
struct SkelDraw {
  std::int64_t send_ns = 0;      ///< setup completion = request send time
  std::int64_t window_ns = 0;    ///< decision R: timely iff response <= R
  std::int64_t deadline_ns = 0;  ///< job deadline (also the post's EDF key)
  std::uint32_t task = 0;
};

/// Maximal dispatch interval of one skeleton sub-job.
struct SkelSegment {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t key = 0;  ///< EDF priority of the job occupying the interval
};

/// A timely result arrival of one replication (zero-length post job).
struct Arrival {
  std::int64_t time_ns = 0;
  std::int64_t deadline_ns = 0;  ///< job deadline = EDF key of the post
  std::uint32_t task = 0;
};

/// A post job waiting behind higher-priority skeleton work.
struct Pending {
  std::int64_t key = 0;
  std::int64_t deadline_ns = 0;
  std::uint32_t task = 0;
};

// ---------------------------------------------------------------------
// Skeleton construction: the serial engine's event loop restricted to the
// replication-invariant work (releases, setup and local sub-jobs). Every
// ordering rule -- (time, seq) event pops, (key, seq) ready picks, the
// dispatch idempotence check -- mirrors engine.cpp so the recorded times,
// counters and segments are the serial ones bit for bit.

struct SkeletonJob {
  std::int64_t key = 0;       // EDF: absolute deadline in ns
  std::int64_t remaining_ns = 0;
  std::int64_t release_ns = 0;
  std::int64_t deadline_ns = 0;  // job deadline
  std::int64_t sub_deadline_ns = 0;  // abs deadline of this sub-job
  std::uint64_t seq = 0;
  std::uint32_t task = 0;
  bool is_setup = false;
};

struct SkelEvent {
  std::int64_t time_ns = 0;
  std::uint64_t seq = 0;
  std::uint32_t kind = 0;  // 0 = release, 1 = slice end
  std::uint64_t arg = 0;   // task index or slice generation

  friend bool operator<(const SkelEvent& a, const SkelEvent& b) {
    if (a.time_ns != b.time_ns) return a.time_ns < b.time_ns;
    return a.seq < b.seq;
  }
};

struct Skeleton {
  bool valid = false;  ///< false: a precondition or tie precheck failed
  std::vector<SkelDraw> draws;
  std::vector<SkelSegment> segments;
  /// Time of the last event pop (< horizon), stale pops included: the
  /// serial engine's cpu_busy charge stops here unless a replication's
  /// arrivals pop later.
  std::int64_t last_pop_ns = 0;
  /// True when a job still holds the CPU at the horizon (the trailing
  /// segment is cut off). Only then can later arrival pops extend the
  /// cpu_busy charge beyond last_pop_ns.
  bool open_tail = false;
  std::int64_t tail_start_ns = 0;
  /// Pop times of every live skeleton event, in pop (= time) order; a
  /// replicated arrival landing on any of these bails out.
  std::vector<std::int64_t> pop_times;
  /// Replication-invariant part of the metrics: releases, attempts, local
  /// completions/benefit, setup/local deadline misses, cpu time, skeleton
  /// context switches.
  SimMetrics base;
  /// Number of draws addressed to each task (sizes the per-task response
  /// stats without a counting pass per replication).
  std::vector<std::uint32_t> draws_per_task;
};

class SkeletonBuilder {
 public:
  Skeleton build(const core::TaskSet& tasks, const std::vector<TaskCache>& tc,
                 const SimConfig& config) {
    const std::int64_t horizon = config.horizon.ns();
    const std::size_t n = tasks.size();
    Skeleton sk;
    sk.base.per_task.resize(n);
    sk.draws_per_task.assign(n, 0);

    events_.clear();
    ready_.clear();
    jobs_.clear();
    free_.clear();
    running_ = kNoSlot;
    running_seg_start_ = 0;
    dispatch_time_ = 0;
    slice_generation_ = 0;
    slice_armed_ = false;
    event_seq_ = 0;
    subjob_seq_ = 0;

    std::vector<std::int64_t> release_pops;
    std::vector<std::int64_t> completion_pops;

    for (std::size_t i = 0; i < n; ++i) {
      push_event(0, 0, i);
    }
    while (!events_.empty()) {
      const SkelEvent ev = events_[0];
      if (ev.time_ns >= horizon) break;
      heap_pop(events_);
      // The serial engine advances the clock before it filters stale slice
      // ends, so even a stale pop charges cpu_busy for the running job --
      // mirror that, or a horizon-truncated run undercounts.
      advance_running(ev.time_ns, sk);
      sk.last_pop_ns = ev.time_ns;
      if (ev.kind == 1 && ev.arg != slice_generation_) continue;  // stale
      now_ = ev.time_ns;
      if (ev.kind == 0) {
        release_pops.push_back(now_);
        handle_release(static_cast<std::size_t>(ev.arg), tc, sk);
      } else {
        completion_pops.push_back(now_);
        handle_slice_end(tc, sk);
      }
      dispatch(sk);
    }
    // Close the trailing segment at the horizon, like the serial engine's
    // final implicit advance (a running job keeps the CPU to the end, but
    // cpu_busy only counts time advanced by popped events -- mirror that:
    // the serial engine never advances past the last popped event, so the
    // open segment's execution past it was never charged. The segment
    // still extends to the horizon for replay purposes: the job holds the
    // CPU there).
    if (running_ != kNoSlot) {
      sk.segments.push_back(
          SkelSegment{running_seg_start_, horizon, jobs_[running_].key});
      sk.open_tail = true;
      sk.tail_start_ns = running_seg_start_;
    }
    sk.base.end_time = TimePoint{horizon};
    sk.base.trace_truncated = false;

    // Tie precheck: a completion on the same nanosecond as a release pop
    // means replayed preemptions could reorder the (time, seq) ties the
    // skeleton resolved one way. Both lists are in pop order (sorted).
    sk.valid = true;
    {
      std::size_t i = 0;
      for (const std::int64_t t : completion_pops) {
        while (i < release_pops.size() && release_pops[i] < t) ++i;
        if (i < release_pops.size() && release_pops[i] == t) {
          sk.valid = false;
          break;
        }
      }
    }
    sk.pop_times.resize(release_pops.size() + completion_pops.size());
    std::merge(release_pops.begin(), release_pops.end(),
               completion_pops.begin(), completion_pops.end(),
               sk.pop_times.begin());
    for (const SkelDraw& d : sk.draws) ++sk.draws_per_task[d.task];
    return sk;
  }

 private:
  void push_event(std::int64_t time, std::uint32_t kind, std::uint64_t arg) {
    heap_push(events_, SkelEvent{time, event_seq_++, kind, arg});
  }

  void ready_push(std::uint32_t slot) {
    const SkeletonJob& j = jobs_[slot];
    heap_push(ready_, detail::ReadyNode{j.key, j.seq, slot});
  }

  std::uint32_t alloc_job() {
    if (!free_.empty()) {
      const std::uint32_t s = free_.back();
      free_.pop_back();
      return s;
    }
    jobs_.emplace_back();
    return static_cast<std::uint32_t>(jobs_.size() - 1);
  }

  void advance_running(std::int64_t to, Skeleton& sk) {
    if (running_ == kNoSlot) return;
    const std::int64_t elapsed = to - dispatch_time_;
    SkeletonJob& j = jobs_[running_];
    j.remaining_ns -= elapsed;
    if (j.remaining_ns < 0) j.remaining_ns = 0;
    sk.base.cpu_busy_ns += elapsed;
    dispatch_time_ = to;
  }

  void handle_release(std::size_t task, const std::vector<TaskCache>& tc,
                      Skeleton& sk) {
    const TaskCache& c = tc[task];
    ++sk.base.per_task[task].released;
    const std::uint32_t slot = alloc_job();
    SkeletonJob& j = jobs_[slot];
    j.task = static_cast<std::uint32_t>(task);
    j.release_ns = now_;
    j.deadline_ns = now_ + c.deadline.ns();
    j.seq = ++subjob_seq_;
    j.is_setup = c.offloaded;
    j.sub_deadline_ns = c.offloaded ? now_ + c.d1.ns() : j.deadline_ns;
    j.key = j.sub_deadline_ns;  // EDF only (precondition)
    j.remaining_ns = c.exec_wcet.ns();  // always-WCET (precondition)
    ready_push(slot);
    push_event(now_ + c.period.ns(), 0, task);
  }

  void handle_slice_end(const std::vector<TaskCache>& tc, Skeleton& sk) {
    slice_armed_ = false;
    const std::uint32_t slot = running_;
    heap_pop(ready_);
    // The segment ends here, not in dispatch(): by the time dispatch()
    // runs, running_ is already cleared, so the completion-terminated
    // segment (the common case) would never be recorded.
    sk.segments.push_back(
        SkelSegment{running_seg_start_, now_, jobs_[slot].key});
    running_ = kNoSlot;
    const SkeletonJob& j = jobs_[slot];
    const TaskCache& c = tc[j.task];
    auto& tm = sk.base.per_task[j.task];
    if (j.is_setup) {
      if (now_ > j.sub_deadline_ns) ++tm.deadline_misses;
      ++tm.offload_attempts;
      sk.draws.push_back(SkelDraw{now_, c.response_time.ns(), j.deadline_ns,
                                  j.task});
    } else {
      ++tm.completed;
      if (now_ > j.deadline_ns) {
        ++tm.deadline_misses;
      } else {
        ++tm.local_runs;
        tm.accrued_benefit += c.local_benefit;
      }
    }
    free_.push_back(slot);
  }

  void dispatch(Skeleton& sk) {
    const std::uint32_t top = ready_.empty() ? kNoSlot : ready_[0].slot;
    if (top == running_ && slice_armed_) return;
    if (top != running_) {
      if (running_ != kNoSlot) {
        sk.segments.push_back(
            SkelSegment{running_seg_start_, now_, jobs_[running_].key});
      }
      running_ = top;
      dispatch_time_ = now_;
      if (running_ != kNoSlot) {
        ++sk.base.context_switches;
        running_seg_start_ = now_;
      }
    }
    ++slice_generation_;
    slice_armed_ = false;
    if (running_ != kNoSlot) {
      push_event(now_ + jobs_[running_].remaining_ns, 1, slice_generation_);
      slice_armed_ = true;
    }
  }

  std::vector<SkelEvent> events_;
  std::vector<detail::ReadyNode> ready_;
  std::vector<SkeletonJob> jobs_;
  std::vector<std::uint32_t> free_;
  std::int64_t now_ = 0;
  std::int64_t dispatch_time_ = 0;
  std::int64_t running_seg_start_ = 0;
  std::uint32_t running_ = kNoSlot;
  std::uint64_t slice_generation_ = 0;
  bool slice_armed_ = false;
  std::uint64_t event_seq_ = 0;
  std::uint64_t subjob_seq_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------

struct BatchSimEngine::Impl {
  BatchEngineStats stats_;
  SimEngine fallback_;
  SkeletonBuilder builder_;
  std::vector<TaskCache> tcache_;

  // Per-run replication state (structure-of-arrays batch buffers: one lane
  // per replication x task, materialized into SimMetrics at the end).
  std::vector<std::uint64_t> timely_;
  std::vector<std::uint64_t> completed_;
  std::vector<std::uint64_t> misses_;
  std::vector<double> benefit_;
  std::vector<RunningStats> response_;
  std::vector<std::uint64_t> ctx_delta_;
  std::vector<std::int64_t> cpu_extra_;
  std::vector<std::uint8_t> bailed_;

  std::vector<Rng> lane_rngs_;
  std::vector<Duration> column_draws_;   // [column][lane] for one block
  std::vector<Duration> rep_draws_;      // gathered per replication
  std::vector<Arrival> arrivals_;
  std::vector<Pending> pending_;

  static bool skeleton_eligible(const SimConfig& cfg) {
    return cfg.scheduler_policy == SchedulerPolicy::kEdf &&
           cfg.exec_policy == ExecTimePolicy::kAlwaysWcet &&
           cfg.release_policy == ReleasePolicy::kPeriodic &&
           cfg.context_switch_overhead.is_zero() && cfg.controller == nullptr &&
           cfg.sink == nullptr && cfg.trace_capacity == 0 &&
           !cfg.abort_on_deadline_miss;
  }

  BatchResult run(const core::TaskSet& tasks,
                  const core::DecisionVector& decisions,
                  const server::ResponseModel& prototype,
                  const SimConfig& config, std::size_t replications,
                  const RequestProfile& profile) {
    stats_ = BatchEngineStats{};
    BatchResult result;
    result.per_replication.resize(replications);
    if (replications == 0) return result;

    if (tasks.size() != decisions.size()) {
      throw std::invalid_argument("simulate: decisions arity mismatch");
    }
    core::validate_task_set(tasks);
    detail::validate_decisions(tasks, decisions);
    detail::fill_task_cache(tcache_, tasks, decisions, config, profile);

    const std::unique_ptr<server::ResponseModel> server = prototype.clone();

    bool fast = skeleton_eligible(config);
    if (fast) {
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (tcache_[i].offloaded && !tcache_[i].post_wcet.is_zero()) {
          fast = false;
          break;
        }
      }
    }

    Skeleton sk;
    if (fast) {
      sk = builder_.build(tasks, tcache_, config);
      fast = sk.valid;
    }

    if (!fast) {
      for (std::size_t r = 0; r < replications; ++r) {
        run_fallback(result, r, tasks, decisions, *server, config, profile);
        result.aggregate.add(result.per_replication[r]);
      }
      return result;
    }

    const std::size_t n = tasks.size();
    timely_.assign(replications * n, 0);
    completed_.assign(replications * n, 0);
    misses_.assign(replications * n, 0);
    benefit_.assign(replications * n, 0.0);
    response_.assign(replications * n, RunningStats{});
    ctx_delta_.assign(replications, 0);
    cpu_extra_.assign(replications, 0);
    bailed_.assign(replications, 0);

    const bool stateless = server->is_stateless();
    const std::size_t columns = sk.draws.size();
    const std::size_t block = stateless ? std::min<std::size_t>(replications, 128) : 1;

    rep_draws_.resize(columns);
    for (std::size_t r0 = 0; r0 < replications; r0 += block) {
      const std::size_t lanes = std::min(block, replications - r0);
      if (stateless) {
        // Columnar draw phase: request c is identical across replications,
        // so one sample_n per skeleton send point serves every lane -- the
        // per-lane RNG streams consume exactly the sequence the serial
        // engine would (its only RNG use in this configuration).
        lane_rngs_.clear();
        for (std::size_t j = 0; j < lanes; ++j) {
          lane_rngs_.emplace_back(derive_seed(config.seed, r0 + j));
        }
        column_draws_.resize(columns * lanes);
        for (std::size_t c = 0; c < columns; ++c) {
          server::Request req = tcache_[sk.draws[c].task].req;
          req.send_time = TimePoint{sk.draws[c].send_ns};
          server->sample_n(req, std::span<Rng>(lane_rngs_.data(), lanes),
                           std::span<Duration>(&column_draws_[c * lanes], lanes));
        }
      }
      for (std::size_t j = 0; j < lanes; ++j) {
        const std::size_t r = r0 + j;
        bool ok = true;
        if (stateless) {
          for (std::size_t c = 0; c < columns; ++c) {
            rep_draws_[c] = column_draws_[c * lanes + j];
          }
        } else {
          server->reset();
          Rng rng(derive_seed(config.seed, r));
          for (std::size_t c = 0; c < columns; ++c) {
            server::Request req = tcache_[sk.draws[c].task].req;
            req.send_time = TimePoint{sk.draws[c].send_ns};
            rep_draws_[c] = server->sample(req, rng);
            if (rep_draws_[c].ns() > sk.draws[c].window_ns) {
              ok = false;  // schedule diverges; no need to keep drawing
              break;
            }
          }
        }
        if (ok) ok = replay(sk, config.horizon.ns(), r, n);
        if (!ok) {
          ++stats_.bailed_replications;
          bailed_[r] = 1;
          if (!stateless) server->reset();
          run_fallback(result, r, tasks, decisions, *server, config, profile);
        } else {
          ++stats_.fast_replications;
        }
      }
    }

    // Materialize: skeleton template + per-replication SoA lanes.
    for (std::size_t r = 0; r < replications; ++r) {
      if (!bailed_[r]) {
        SimMetrics m = sk.base;
        for (std::size_t i = 0; i < n; ++i) {
          TaskMetrics& tm = m.per_task[i];
          const std::size_t lane = r * n + i;
          tm.timely_results += timely_[lane];
          tm.completed += completed_[lane];
          tm.deadline_misses += misses_[lane];
          tm.accrued_benefit += benefit_[lane];
          tm.observed_response_ms = response_[lane];
        }
        m.context_switches += ctx_delta_[r];
        m.cpu_busy_ns += cpu_extra_[r];
        result.per_replication[r] = std::move(m);
      }
      result.aggregate.add(result.per_replication[r]);
    }
    return result;
  }

  /// Replays replication r's timely zero-length posts over the skeleton.
  /// Returns false on any tie-break hazard (the caller falls back).
  bool replay(const Skeleton& sk, std::int64_t horizon, std::size_t r,
              std::size_t n) {
    const std::size_t columns = sk.draws.size();
    // Draw validation + response statistics. The serial engine records
    // observed_response_ms at send time, i.e. in draw order, which is how
    // this loop visits them; a non-timely draw bails before the lane is
    // read, so partially filled stats are never observed.
    arrivals_.resize(columns);
    for (std::size_t c = 0; c < columns; ++c) {
      const Duration resp = rep_draws_[c];
      if (resp.ns() > sk.draws[c].window_ns) return false;
      response_[r * n + sk.draws[c].task].add(resp.ms());
      arrivals_[c] = Arrival{sk.draws[c].send_ns + resp.ns(),
                             sk.draws[c].deadline_ns, sk.draws[c].task};
    }
    // Draws are generated in send order and response windows are short
    // relative to send spacing, so arrivals_ is nearly sorted: insertion
    // sort's adaptive O(n + inversions) beats std::sort here.
    for (std::size_t i = 1; i < arrivals_.size(); ++i) {
      const Arrival a = arrivals_[i];
      std::size_t j = i;
      while (j > 0 && arrivals_[j - 1].time_ns > a.time_ns) {
        arrivals_[j] = arrivals_[j - 1];
        --j;
      }
      arrivals_[j] = a;
    }

    pending_.clear();
    std::size_t seg = 0;          // first segment not yet fully passed
    std::size_t pop = 0;          // cursor into sk.pop_times
    std::uint64_t ctx = 0;
    std::int64_t prev_arrival = -1;

    const auto complete_post = [&](std::uint32_t task, std::int64_t t,
                                   std::int64_t deadline) {
      const std::size_t lane = r * n + task;
      ++completed_[lane];
      if (t > deadline) {
        ++misses_[lane];
      } else {
        benefit_[lane] += tcache_[task].timely_benefit;
      }
    };

    // Drains every pending post eligible at boundary time t against the
    // key that occupies the CPU next; returns false on a key tie.
    const auto drain = [&](std::int64_t t, std::int64_t next_key) -> bool {
      while (!pending_.empty()) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < pending_.size(); ++i) {
          if (pending_[i].key < pending_[best].key) best = i;
        }
        if (pending_[best].key > next_key) break;
        if (pending_[best].key == next_key) return false;  // seq tie unknown
        ++ctx;
        complete_post(pending_[best].task, t, pending_[best].deadline_ns);
        // Order-preserving removal: equal keys must drain in insertion
        // order, the serial engine's sub-job seq tie-break.
        pending_.erase(pending_.begin() +
                       static_cast<std::ptrdiff_t>(best));
      }
      return true;
    };

    // Advances past every segment boundary strictly before t.
    const auto advance_to = [&](std::int64_t t) -> bool {
      while (seg < sk.segments.size() && sk.segments[seg].end_ns < t) {
        if (pending_.empty()) {
          // Draining is a no-op with nothing pending; skip straight past
          // the remaining boundaries.
          do {
            ++seg;
          } while (seg < sk.segments.size() && sk.segments[seg].end_ns < t);
          return true;
        }
        const std::int64_t end = sk.segments[seg].end_ns;
        const std::int64_t next_key =
            (seg + 1 < sk.segments.size() &&
             sk.segments[seg + 1].start_ns == end)
                ? sk.segments[seg + 1].key
                : kIdleKey;
        if (!drain(end, next_key)) return false;
        ++seg;
      }
      return true;
    };

    for (const Arrival& a : arrivals_) {
      if (a.time_ns >= horizon) break;  // never popped by the serial engine
      if (a.time_ns == prev_arrival) return false;  // same-instant arrivals
      prev_arrival = a.time_ns;
      if (!advance_to(a.time_ns)) return false;
      while (pop < sk.pop_times.size() && sk.pop_times[pop] < a.time_ns) ++pop;
      if (pop < sk.pop_times.size() && sk.pop_times[pop] == a.time_ns) {
        return false;  // collides with a skeleton event pop
      }
      ++timely_[r * n + a.task];
      const bool busy = seg < sk.segments.size() &&
                        sk.segments[seg].start_ns <= a.time_ns &&
                        a.time_ns < sk.segments[seg].end_ns;
      if (!busy) {
        ctx += 1;  // idle -> post -> idle
        complete_post(a.task, a.time_ns, a.deadline_ns);
      } else {
        const std::int64_t run_key = sk.segments[seg].key;
        if (a.deadline_ns < run_key) {
          ctx += 2;  // preempt + resume
          complete_post(a.task, a.time_ns, a.deadline_ns);
        } else if (a.deadline_ns == run_key) {
          return false;  // tie against the running job's seq
        } else {
          pending_.push_back(Pending{a.deadline_ns, a.deadline_ns, a.task});
        }
      }
    }
    if (!advance_to(horizon)) return false;
    // Posts still pending at the horizon never complete -- their timely
    // arrival was counted, the completion was cut off, like the serial
    // engine breaking its loop with jobs in the ready queue.
    //
    // cpu_busy: the serial charge stops at the run's last event pop. When
    // a job still holds the CPU at the horizon and this replication's last
    // arrival pops after the skeleton's last pop, the serial engine would
    // have charged the tail job up to that arrival.
    if (sk.open_tail && prev_arrival > sk.last_pop_ns) {
      const std::int64_t lo = std::max(sk.last_pop_ns, sk.tail_start_ns);
      if (prev_arrival > lo) cpu_extra_[r] = prev_arrival - lo;
    }
    ctx_delta_[r] = ctx;
    return true;
  }

  void run_fallback(BatchResult& result, std::size_t r,
                    const core::TaskSet& tasks,
                    const core::DecisionVector& decisions,
                    server::ResponseModel& server, const SimConfig& config,
                    const RequestProfile& profile) {
    ++stats_.fallback_replications;
    server.reset();
    SimConfig cfg = config;
    cfg.seed = derive_seed(config.seed, r);
    result.per_replication[r] =
        fallback_.run(tasks, decisions, server, cfg, profile).metrics;
  }
};

BatchSimEngine::BatchSimEngine() : impl_(std::make_unique<Impl>()) {}
BatchSimEngine::~BatchSimEngine() = default;
BatchSimEngine::BatchSimEngine(BatchSimEngine&&) noexcept = default;
BatchSimEngine& BatchSimEngine::operator=(BatchSimEngine&&) noexcept = default;

BatchResult BatchSimEngine::run(const core::TaskSet& tasks,
                                const core::DecisionVector& decisions,
                                const server::ResponseModel& prototype,
                                const SimConfig& config,
                                std::size_t replications,
                                const RequestProfile& profile) {
  return impl_->run(tasks, decisions, prototype, config, replications, profile);
}

const BatchEngineStats& BatchSimEngine::stats() const { return impl_->stats_; }

}  // namespace rt::sim
