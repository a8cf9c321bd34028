// Batched replication engine (see batch_engine.hpp for the contract).
//
// Parity argument, in one place. Under the skeleton preconditions (EDF,
// always-WCET, periodic releases, zero context-switch overhead, zero post
// WCET, no controller/sink/trace/abort) the serial engine's schedule of
// release/setup/local work cannot depend on the server draws as long as
// every draw is timely: the only sub-jobs whose timing depends on a draw
// are result posts, and those have zero length, so they occupy the CPU for
// an instant without delaying anything else. The skeleton recorded below is
// that shared schedule, produced by the protocol core itself (a third
// driver of protocol_core.hpp, beside SimEngine and the real runtime). A
// replication only has to (a) draw the responses in the skeleton's request
// order -- the only RNG consumption in this configuration -- and (b) replay
// the zero-length posts against the skeleton's busy segments to reproduce
// the serial engine's context-switch count, completion bookkeeping and
// deadline checks.
//
// Where a post meets other work on one nanosecond, the serial outcome
// hinges on its (time, seq) event order and (key, seq) ready order. Both
// follow from facts the replay can compute:
//   * Events on one nanosecond pop in push order. A release at T was pushed
//     at T - period; a result arrival at its send instant, inside the
//     setup's completion, before that event's dispatch arms a slice; the
//     running job's completion at its last (re)dispatch. That job ran alone
//     from its skeleton dispatch to T, so every arrival at T was sent no
//     later -- in the same instant, the send first -- and pops before the
//     completion; a post that preempted the job since only pushed the
//     completion later still. A zero-length post's slice end is pushed at
//     T itself, so it pops after every event at T pushed earlier: a second
//     arrival or a release at T can still preempt that post.
//   * A release and an arrival are never pushed on one nanosecond: the
//     skeleton is rejected up front when a completion and a release share
//     a nanosecond.
//   * Ready-queue ties on the EDF key break on push order of the sub-jobs: a
//     skeleton setup or local job is pushed at its release pop, a post at
//     its arrival pop. A post therefore ranks behind exactly the skeleton
//     jobs released before its arrival popped.
// At such an instant the replay steps the serial engine's events over a
// tiny local state (tie_step). Only a non-timely draw (response > R or no
// response), which spawns a compensation sub-job of nonzero length and
// really changes the schedule, bails that replication out to the serial
// engine with the same derived seed -- and, counted apart, a zero
// response, whose arrival is pushed at T itself.

#include "sim/batch_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/engine_detail.hpp"
#include "sim/protocol_core.hpp"
#include "util/dary_heap.hpp"
#include "util/rng.hpp"

namespace rt::sim {

namespace {

using detail::TaskCache;

using detail::kNoSlot;
constexpr std::size_t kNoPost = std::numeric_limits<std::size_t>::max();
/// Most response draws one replication block buffers (8 bytes each, so
/// 1 MiB). A long horizon has thousands of draw columns: 128 lanes of them
/// take megabytes, and where the allocator puts that buffer as it regrows
/// from one scenario to the next moves peak RSS by as much.
constexpr std::size_t kMaxBlockDraws = std::size_t{1} << 17;

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
  std::int64_t key = 0;   ///< EDF priority of the job occupying the interval
  std::uint64_t seq = 0;  ///< the job's sub-job seq: its release's rank
};

/// One skeleton event pop, in pop order.
struct SkelPop {
  std::int64_t time_ns = 0;
  /// Instant the event was pushed. The replay reads it for releases
  /// only (pushed at their task's previous release): an arrival always
  /// pops before a completion on its nanosecond (tie_step).
  std::int64_t push_ns = 0;
  /// Skeleton sub-jobs released so far, this pop included. A post whose
  /// arrival pops after this one ranks behind exactly these on a key tie.
  std::uint64_t releases = 0;
  /// Segment running after this pop's dispatch, or kNoSlot (CPU idle).
  std::uint32_t seg_after = kNoSlot;
  bool completion = false;
  bool switched = false;  ///< this pop's dispatch counted a context switch
};

/// A timely result arrival of one replication (zero-length post job).
struct Arrival {
  std::int64_t time_ns = 0;
  std::int64_t send_ns = 0;      ///< push instant of the arrival event
  std::int64_t deadline_ns = 0;  ///< job deadline = EDF key of the post
  std::uint32_t task = 0;
};

/// A post job in the ready queue behind higher-priority work.
struct Pending {
  std::int64_t deadline_ns = 0;  ///< also its EDF key
  /// Skeleton releases popped before its arrival: the post runs before a
  /// skeleton job of equal key iff that job's seq is larger.
  std::uint64_t seq = 0;
  std::uint32_t task = 0;
};

/// Serial ready order between a post and a skeleton job: (key, seq).
bool runs_before(const Pending& p, const SkelSegment& s) {
  return p.deadline_ns < s.key || (p.deadline_ns == s.key && p.seq < s.seq);
}

// ---------------------------------------------------------------------
// Skeleton recording. The skeleton is the protocol core's own schedule:
// SkeletonRecorder drives ProtocolCore the way SimEngine does (engine.cpp)
// -- a heap of releases plus the one armed slice end in a register beside
// it, both ordered on (time, seq) from one counter -- so every pop,
// dispatch and metric it records is the serial engine's. A request send
// becomes a draw and is never resolved: its zero-length post belongs to
// each replication's replay, not to the shared schedule.

struct Skeleton {
  bool valid = false;  ///< false: a precondition or tie precheck failed
  std::vector<SkelDraw> draws;
  std::vector<SkelSegment> segments;
  /// Every skeleton event pop, in pop (= time) order.
  std::vector<SkelPop> pops;
  /// Replication-invariant part of the metrics: releases, attempts, local
  /// completions/benefit, setup/local deadline misses, skeleton context
  /// switches, and all of cpu_busy (the posts have zero length).
  SimMetrics base;
};

/// Tie precheck: a completion on the same nanosecond as a release pop
/// means replayed preemptions could reorder the (time, seq) ties the
/// skeleton resolved one way.
bool ties_replayable(const std::vector<SkelPop>& pops) {
  for (std::size_t i = 0; i < pops.size();) {
    const std::int64_t t = pops[i].time_ns;
    bool release = false;
    bool completion = false;
    for (; i < pops.size() && pops[i].time_ns == t; ++i) {
      (pops[i].completion ? completion : release) = true;
    }
    if (release && completion) return false;
  }
  return true;
}

class SkeletonRecorder : public ProtocolCore<SkeletonRecorder> {
 public:
  static constexpr const char* kName = "simulate";
  static constexpr const char* kMetricPrefix = "sim";

  Skeleton record(const core::TaskSet& tasks, const core::DecisionVector& decisions,
                  const SimConfig& config, const RequestProfile& profile) {
    sk_ = Skeleton{};
    releases_.clear();
    event_seq_ = 0;
    slice_time_ = TimePoint::max();
    reset(tasks, decisions, config, profile);
    for (std::uint32_t i = 0; i < tasks.size(); ++i) {
      push_release(TimePoint::zero(), i);
    }
    for (;;) {
      const bool slice = slice_is_next();
      const TimePoint t = slice ? slice_time_ : releases_[0].time;
      if (t >= horizon_end_) break;
      // The sub-job running into this pop; seqs start at 1, so 0 is idle.
      const SubJob* ran = running_subjob();
      const std::uint64_t ran_seq = ran != nullptr ? ran->seq : 0;
      const std::int64_t ran_key = ran != nullptr ? ran->priority_key : 0;
      advance_to(t);
      TimePoint pushed = slice_pushed_;
      if (slice) {
        slice_time_ = TimePoint::max();
        if (!slice_end()) {
          throw std::logic_error("simulate: live slice-end without a finished job");
        }
      } else {
        const Release ev = releases_[0];
        heap_pop(releases_);
        pushed = ev.pushed;
        push_release(release(ev.task, now_), ev.task);
      }
      const std::uint64_t switches = metrics_.context_switches;
      dispatch();
      const SubJob* runs = running_subjob();
      if ((runs != nullptr ? runs->seq : 0) != ran_seq) {
        if (ran_seq != 0) {
          sk_.segments.push_back(SkelSegment{seg_start_, t.ns(), ran_key, ran_seq});
        }
        seg_start_ = t.ns();
      }
      // The running segment is the next one appended: every segment
      // started earlier has already ended.
      sk_.pops.push_back(SkelPop{
          t.ns(), pushed.ns(), job_counter_,
          runs != nullptr ? static_cast<std::uint32_t>(sk_.segments.size()) : kNoSlot,
          slice, metrics_.context_switches != switches});
    }
    // A job still running holds the CPU, and is charged, up to the
    // horizon, like the serial engine's final advance.
    advance_to(horizon_end_);
    if (const SubJob* sj = running_subjob()) {
      sk_.segments.push_back(
          SkelSegment{seg_start_, horizon_end_.ns(), sj->priority_key, sj->seq});
    }
    finish();
    sk_.base = std::move(metrics_);

    sk_.valid = ties_replayable(sk_.pops);
    return std::move(sk_);
  }

  // ---- the driver hooks of ProtocolCore ----

  void arm_slice(TimePoint end) {
    slice_time_ = end;
    slice_seq_ = event_seq_++;
    slice_pushed_ = now_;
  }

  void cancel_slice() { slice_time_ = TimePoint::max(); }

  void send_offload(const Offload& job, const TaskCache& tc) {
    sk_.draws.push_back(SkelDraw{job.send.ns(), tc.response_time.ns(),
                                 job.job_deadline.ns(), job.task});
  }

 private:
  struct Release {
    TimePoint time;
    std::uint64_t seq = 0;
    TimePoint pushed;  ///< the task's previous release
    std::uint32_t task = 0;

    friend bool operator<(const Release& a, const Release& b) {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };

  void push_release(TimePoint time, std::uint32_t task) {
    heap_push(releases_, Release{time, event_seq_++, now_, task});
  }

  /// Does the armed slice end pop before the next release? Disarmed, it is
  /// at TimePoint::max() and only "wins" an empty heap, past the horizon.
  [[nodiscard]] bool slice_is_next() const {
    if (releases_.empty()) return true;
    const Release& top = releases_[0];
    return slice_time_ < top.time ||
           (slice_time_ == top.time && slice_seq_ < top.seq);
  }

  Skeleton sk_;  ///< the skeleton record() is filling
  std::vector<Release> releases_;  // 4-ary min-heap keyed on (time, seq)
  std::uint64_t event_seq_ = 0;
  TimePoint slice_time_ = TimePoint::max();
  std::uint64_t slice_seq_ = 0;
  TimePoint slice_pushed_;
  std::int64_t seg_start_ = 0;  ///< start of the running sub-job's segment
};

/// How one replication's replay ended.
enum class Replay : std::uint8_t {
  kFast,    ///< the skeleton represents it exactly
  kWindow,  ///< a response later than R, or none: the schedule changes
  kTie,     ///< a same-instant pattern the tie step does not model
};

/// Where one replication's walk over the skeleton stands.
struct Cursor {
  std::size_t seg = 0;    ///< first segment not yet fully passed
  std::size_t pop = 0;    ///< first skeleton pop not yet passed
  std::uint64_t ctx = 0;  ///< context switches beyond the skeleton's
};

/// A slice end armed during a tie step; it pops after every event pushed
/// before the step's instant.
struct LocalSliceEnd {
  std::uint64_t generation = 0;
  bool post = false;
};

}  // namespace

// ---------------------------------------------------------------------

struct BatchSimEngine::Impl {
  BatchEngineStats stats_;
  SimEngine fallback_;
  SkeletonRecorder recorder_;
  std::vector<TaskCache> tcache_;

  // Per-run replication state (structure-of-arrays batch buffers: one lane
  // per replication x task, materialized into SimMetrics at the end).
  std::vector<std::uint64_t> timely_;
  std::vector<std::uint64_t> completed_;
  std::vector<std::uint64_t> misses_;
  std::vector<double> benefit_;
  std::vector<RunningStats> response_;
  std::vector<std::uint64_t> ctx_delta_;
  std::vector<std::uint8_t> bailed_;

  std::vector<Rng> lane_rngs_;
  std::vector<Duration> column_draws_;   // [column][lane] for one block
  std::vector<Duration> rep_draws_;      // one replication's, when stateful
  std::vector<Arrival> arrivals_;
  std::vector<Pending> pending_;
  std::vector<LocalSliceEnd> slice_ends_;

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
      sk = recorder_.record(tasks, decisions, config, profile);
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
    bailed_.assign(replications, 0);

    const bool stateless = server->is_stateless();
    const std::size_t columns = sk.draws.size();
    // Up to 128 lanes per block, fewer when their draws would pass
    // kMaxBlockDraws. Lane streams are independent, so the block size
    // changes no result.
    const std::size_t block =
        stateless ? std::clamp<std::size_t>(
                        kMaxBlockDraws / std::max<std::size_t>(columns, 1), 1,
                        std::min<std::size_t>(replications, 128))
                  : 1;

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
        Replay outcome = Replay::kFast;
        // Lane j's draws: column-major across the block, or sequential.
        const Duration* draws =
            stateless ? column_draws_.data() + j : rep_draws_.data();
        const std::size_t stride = stateless ? lanes : 1;
        if (!stateless) {
          server->reset();
          Rng rng(derive_seed(config.seed, r));
          for (std::size_t c = 0; c < columns; ++c) {
            server::Request req = tcache_[sk.draws[c].task].req;
            req.send_time = TimePoint{sk.draws[c].send_ns};
            rep_draws_[c] = server->sample(req, rng);
            if (rep_draws_[c].ns() > sk.draws[c].window_ns) {
              outcome = Replay::kWindow;  // no need to keep drawing
              break;
            }
          }
        }
        if (outcome == Replay::kFast) {
          outcome = replay(sk, config.horizon.ns(), r, n, draws, stride);
        }
        if (outcome == Replay::kFast) {
          ++stats_.fast_replications;
          continue;
        }
        ++(outcome == Replay::kWindow ? stats_.bailed_window
                                      : stats_.bailed_tie);
        ++stats_.bailed_replications;
        bailed_[r] = 1;
        run_fallback(result, r, tasks, decisions, *server, config, profile);
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
        result.per_replication[r] = std::move(m);
      }
      result.aggregate.add(result.per_replication[r]);
    }
    return result;
  }

  /// Replays replication r's timely zero-length posts over the skeleton;
  /// draw c is draws[c * stride].
  Replay replay(const Skeleton& sk, std::int64_t horizon, std::size_t r,
                std::size_t n, const Duration* draws, std::size_t stride) {
    const std::size_t columns = sk.draws.size();
    const std::size_t lane0 = r * n;
    // Draw validation + response statistics. The serial engine records
    // observed_response_ms at send time, i.e. in draw order, which is how
    // this loop visits them; a non-timely draw bails before the lane is
    // read, so partially filled stats are never observed.
    arrivals_.resize(columns);
    for (std::size_t c = 0; c < columns; ++c) {
      const SkelDraw& d = sk.draws[c];
      const Duration resp = draws[c * stride];
      if (resp.ns() > d.window_ns) return Replay::kWindow;
      response_[lane0 + d.task].add(resp.ms());
      arrivals_[c] =
          Arrival{d.send_ns + resp.ns(), d.send_ns, d.deadline_ns, d.task};
    }
    // Draws are generated in send order and response windows are short
    // relative to send spacing, so arrivals_ is nearly sorted: insertion
    // sort's adaptive O(n + inversions) beats std::sort here. It is
    // stable, so arrivals on one nanosecond stay in draw = push order.
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
    Cursor cur;
    std::uint64_t ties = 0;
    for (std::size_t i = 0; i < arrivals_.size();) {
      const Arrival& a = arrivals_[i];
      if (a.time_ns >= horizon) break;  // never popped by the serial engine
      advance_to(sk, cur, lane0, a.time_ns);
      while (cur.pop < sk.pops.size() && sk.pops[cur.pop].time_ns < a.time_ns) {
        ++cur.pop;
      }
      std::size_t end = i + 1;
      while (end < arrivals_.size() && arrivals_[end].time_ns == a.time_ns) ++end;
      if (end > i + 1 ||
          (cur.pop < sk.pops.size() && sk.pops[cur.pop].time_ns == a.time_ns)) {
        if (!tie_step(sk, cur, lane0, i, end)) return Replay::kTie;
        ++ties;
        i = end;
        continue;
      }
      ++i;
      // The only event at this instant: the post runs at once unless the
      // running job precedes it. That job was released before the
      // arrival, so an equal key keeps it running.
      ++timely_[lane0 + a.task];
      const bool busy = cur.seg < sk.segments.size() &&
                        sk.segments[cur.seg].start_ns <= a.time_ns &&
                        a.time_ns < sk.segments[cur.seg].end_ns;
      if (!busy) {
        cur.ctx += 1;  // idle -> post -> idle
        complete_post(lane0, a.task, a.time_ns, a.deadline_ns);
      } else if (a.deadline_ns < sk.segments[cur.seg].key) {
        cur.ctx += 2;  // preempt + resume
        complete_post(lane0, a.task, a.time_ns, a.deadline_ns);
      } else {
        pending_.push_back(Pending{
            a.deadline_ns, cur.pop > 0 ? sk.pops[cur.pop - 1].releases : 0,
            a.task});
      }
    }
    advance_to(sk, cur, lane0, horizon);
    // Posts still pending at the horizon never complete -- their timely
    // arrival was counted, the completion was cut off, like the serial
    // engine breaking its loop with jobs in the ready queue.
    ctx_delta_[r] = cur.ctx;
    stats_.tie_instants += ties;
    return Replay::kFast;
  }

  void complete_post(std::size_t lane0, std::uint32_t task, std::int64_t t,
                     std::int64_t deadline) {
    const std::size_t lane = lane0 + task;
    ++completed_[lane];
    if (t > deadline) {
      ++misses_[lane];
    } else {
      benefit_[lane] += tcache_[task].timely_benefit;
    }
  }

  /// Index of the ready post the serial engine would pick first: the
  /// smallest key, the earliest push on ties (pending_ is in push order).
  std::size_t best_post() const {
    std::size_t best = kNoPost;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (best == kNoPost || pending_[i].deadline_ns < pending_[best].deadline_ns) {
        best = i;
      }
    }
    return best;
  }

  /// Runs every pending post that precedes segment `next` (kNoSlot: the CPU
  /// goes idle) at boundary time t, one context switch each.
  void drain(const Skeleton& sk, Cursor& cur, std::size_t lane0,
             std::int64_t t, std::uint32_t next) {
    while (!pending_.empty()) {
      const std::size_t best = best_post();
      if (next != kNoSlot && !runs_before(pending_[best], sk.segments[next])) {
        break;
      }
      ++cur.ctx;
      complete_post(lane0, pending_[best].task, t, pending_[best].deadline_ns);
      // Order-preserving removal keeps pending_ in push order.
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
    }
  }

  /// Advances past every segment boundary strictly before t.
  void advance_to(const Skeleton& sk, Cursor& cur, std::size_t lane0,
                  std::int64_t t) {
    while (cur.seg < sk.segments.size() && sk.segments[cur.seg].end_ns < t) {
      if (pending_.empty()) {
        // Draining is a no-op with nothing pending; skip straight past
        // the remaining boundaries.
        do {
          ++cur.seg;
        } while (cur.seg < sk.segments.size() &&
                 sk.segments[cur.seg].end_ns < t);
        return;
      }
      const std::int64_t end = sk.segments[cur.seg].end_ns;
      const bool next_starts = cur.seg + 1 < sk.segments.size() &&
                               sk.segments[cur.seg + 1].start_ns == end;
      drain(sk, cur, lane0, end,
            next_starts ? static_cast<std::uint32_t>(cur.seg + 1) : kNoSlot);
      ++cur.seg;
    }
  }

  /// Steps the serial engine through every event at T, the instant of
  /// arrivals_[a0, a1): those arrivals, the skeleton pops at T, and the
  /// slice ends armed at T. Pre-T events pop in push order; slice ends
  /// pushed at T pop after them, in arming order. Returns false on a zero
  /// response, whose arrival is pushed at T itself.
  bool tie_step(const Skeleton& sk, Cursor& cur, std::size_t lane0,
                std::size_t a0, std::size_t a1) {
    const std::int64_t t = arrivals_[a0].time_ns;
    for (std::size_t a = a0; a < a1; ++a) {
      if (arrivals_[a].send_ns == t) return false;  // zero response
    }
    const std::size_t p0 = cur.pop;
    std::size_t p1 = p0;
    std::int64_t skel_switches = 0;
    for (; p1 < sk.pops.size() && sk.pops[p1].time_ns == t; ++p1) {
      skel_switches += sk.pops[p1].switched ? 1 : 0;
    }
    // The skeleton job holding the CPU just before T.
    const std::uint32_t before =
        cur.seg < sk.segments.size() && sk.segments[cur.seg].start_ns < t
            ? static_cast<std::uint32_t>(cur.seg)
            : kNoSlot;
    // No release pops at T when a completion does, so the pops at T are
    // all releases or all completions. The first completion is
    // `before`'s, pushed before T; each later one belongs to a job
    // dispatched at T with no work left (preempted on the nanosecond its
    // work ran out), so it is pushed at T, when that job is armed.
    const bool completing = p1 > p0 && sk.pops[p0].completion;
    std::size_t next_done = p0;  // the next completion pop to happen
    const auto completes_next = [&](std::uint32_t seg) {
      return completing && next_done < p1 &&
             seg == (next_done == p0 ? before : sk.pops[next_done - 1].seg_after);
    };

    std::uint32_t skel_min = before;  // skeleton ready minimum (segment)
    std::uint32_t run_seg = before;   // running skeleton job, or kNoSlot
    std::size_t run_post = kNoPost;   // running post (pending_ index)
    bool armed = before != kNoSlot;
    std::uint64_t generation = 0;     // `before`'s pre-T slice end has 0
    std::uint64_t releases = p0 > 0 ? sk.pops[p0 - 1].releases : 0;
    std::int64_t switches = 0;
    slice_ends_.clear();

    const auto dispatch = [&] {
      const std::size_t best = best_post();
      const bool post_top =
          best != kNoPost &&
          (skel_min == kNoSlot ||
           runs_before(pending_[best], sk.segments[skel_min]));
      const std::uint32_t top_seg = post_top ? kNoSlot : skel_min;
      const std::size_t top_post = post_top ? best : kNoPost;
      const bool same = top_seg == run_seg && top_post == run_post;
      if (same && armed) return;
      if (!same) {
        run_seg = top_seg;
        run_post = top_post;
        if (run_seg != kNoSlot || run_post != kNoPost) ++switches;
      }
      if (armed) ++generation;  // the armed slice end goes stale
      armed = run_seg != kNoSlot || run_post != kNoPost;
      if (run_post != kNoPost) {
        slice_ends_.push_back(LocalSliceEnd{generation, true});
      } else if (completes_next(run_seg)) {
        slice_ends_.push_back(LocalSliceEnd{generation, false});
      }
    };
    const auto complete_running = [&] {
      run_seg = kNoSlot;
      armed = false;
      skel_min = sk.pops[next_done++].seg_after;
    };

    // Pre-T events, merged by push instant. A release's never equals a
    // send (no release pop shares an instant with a completion pop). An
    // arrival always precedes `before`'s completion: that job ran alone
    // from its last dispatch to T, so the send came no later than that
    // dispatch -- in the same instant, the send first -- and a post that
    // preempted it since only pushed the completion later still.
    const std::size_t pre_end = completing ? p0 + 1 : p1;
    std::size_t p = p0;
    std::size_t a = a0;
    while (p < pre_end || a < a1) {
      bool arrival = a < a1;
      if (arrival && p < pre_end) {
        arrival = sk.pops[p].completion ||
                  arrivals_[a].send_ns < sk.pops[p].push_ns;
      }
      if (arrival) {
        const Arrival& ar = arrivals_[a++];
        ++timely_[lane0 + ar.task];
        pending_.push_back(Pending{ar.deadline_ns, releases, ar.task});
      } else {
        const SkelPop& sp = sk.pops[p++];
        if (!sp.completion) {
          releases = sp.releases;
          skel_min = sp.seg_after;
        } else if (generation == 0) {
          complete_running();
        }  // else stale: a post preempted `before`, which re-arms at T
      }
      dispatch();
    }
    // Slice ends armed at T, in arming order.
    for (std::size_t k = 0; k < slice_ends_.size(); ++k) {
      const LocalSliceEnd ev = slice_ends_[k];
      if (ev.generation == generation) {
        if (ev.post) {
          const Pending done = pending_[run_post];
          pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(run_post));
          run_post = kNoPost;
          armed = false;
          complete_post(lane0, done.task, t, done.deadline_ns);
        } else {
          complete_running();
        }
      }
      dispatch();
    }

    cur.ctx += static_cast<std::uint64_t>(switches - skel_switches);
    cur.pop = p1;
    while (cur.seg < sk.segments.size() && sk.segments[cur.seg].end_ns <= t) {
      ++cur.seg;
    }
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
