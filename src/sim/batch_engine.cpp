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
// A post alone on its nanosecond -- strictly between two skeleton pops, on
// no other arrival's instant -- cannot change another post's outcome: it
// runs at its arrival or right after the segment end it waits for, after
// every event pushed before that instant, and takes no time. Its outcome
// depends only on which gap between consecutive pops its arrival lands in.
// So each draw column's window is split at the pops (and at the deadline
// and the horizon) into intervals, each with the outcome the merge rules
// give it (the outcome table), and a lane's replay is one table lookup per
// draw, fused into the column loop that draws it.
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
// A lane with such an instant leaves the column loop for the exact merge,
// which redraws its responses and steps the serial engine's events at each
// such instant over a tiny local state (tie_step). Only a non-timely draw
// (response > R or no response), which spawns a compensation sub-job of
// nonzero length and really changes the schedule, bails that replication
// out to the serial engine with the same derived seed -- and, counted
// apart, a zero response, whose arrival is pushed at T itself.

#include "sim/batch_engine.hpp"

#include <algorithm>
#include <bit>
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
  std::uint32_t interval = 0;    ///< its interval of the outcome table
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

  /// The run's TaskCache, which the replay reads: record() validated the
  /// inputs and filled it, through ProtocolCore::reset.
  using ProtocolCore::task_cache;

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
  kExact,   ///< a same-instant event: the lane needs the exact merge
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

/// What one timely post adds to its lane when its arrival lands inside
/// one interval of its column's table, packed in 16-bit fields so one
/// addition counts them all.
enum OutcomeField : unsigned {
  kTimelyAt = 0,  ///< 0 past the horizon: the arrival never pops
  kDoneAt = 16,   ///< the post completes before the horizon
  kMissAt = 32,   ///< ... after its job deadline
  kCtxAt = 48,    ///< context switches beyond the skeleton's
};
/// A column adds at most 2 to a field, so packed counters are unpacked
/// at least this often.
constexpr std::size_t kUnpackColumns = 0x7FFF;

std::uint64_t field(std::uint64_t packed, OutcomeField at) {
  return (packed >> at) & 0xFFFF;
}

/// Index of the interval of arrival t: the boundaries below it, counted
/// without a data-dependent branch.
std::uint32_t interval_of(const std::int64_t* bounds, std::uint32_t n,
                          std::int64_t t) {
  std::uint32_t k = 0;
  for (std::uint32_t b = 0; b < n; ++b) {
    k += static_cast<std::uint32_t>(bounds[b] < t);
  }
  return k;
}

/// Draw column c's slice of the outcome table: its window (send, send + R]
/// split at the boundaries bounds_[bound0, bound0 + bounds), interval k
/// holding the arrivals in (bound k-1, bound k].
struct Column {
  std::uint32_t bound0 = 0;
  std::uint32_t bounds = 0;
  std::uint32_t interval0 = 0;  ///< first of the column's bounds + 1 intervals
  std::uint32_t reach0 = 0;     ///< first of its entries in reach_rows_
  std::uint32_t reaches = 0;    ///< earlier columns whose windows pass its send
};

/// Lanes one block advances together.
constexpr std::size_t kLanes = 128;
/// Counter stride: the block's lanes plus the exact merge's scratch slot.
constexpr std::size_t kStride = kLanes + 1;
constexpr std::size_t kScratch = kLanes;
/// An interval whose upper end is no pop instant: no arrival equals it.
constexpr std::int64_t kNoPopAt = std::numeric_limits<std::int64_t>::min();

}  // namespace

// ---------------------------------------------------------------------

struct BatchSimEngine::Impl {
  BatchEngineStats stats_;
  SimEngine fallback_;
  SkeletonRecorder recorder_;

  // Outcome table, one slice per draw column, built as the first block
  // reaches the column.
  std::vector<Column> columns_;
  std::vector<std::int64_t> bounds_;
  std::vector<std::int64_t> pop_at_;  ///< per interval: the pop at its upper end
  std::vector<std::uint64_t> outcomes_;  ///< per interval, packed
  std::size_t built_ = 0;             ///< columns built so far
  std::size_t build_pop_ = 0;         ///< first pop after the last built send
  /// Per column, ring rows of the earlier columns whose windows pass its
  /// send: the only draws one of its arrivals can share a nanosecond with.
  std::vector<std::uint32_t> reach_rows_;
  std::size_t ring_rows_ = 1;  ///< a power of two

  // One block's lanes. Counters are [task][slot] with stride kStride, slot
  // kScratch being the exact merge's; a lane leaving the fused loop hands
  // its slot to the last live one. A task's benefit is its hit count's
  // entry in benefit_sums_: the serial engine adds the same value per hit.
  std::vector<Rng> rngs_;
  std::vector<std::uint32_t> lane_of_;  ///< [slot] replication - block start
  std::vector<Duration> row_;           ///< [slot] one column's draws
  std::vector<Replay> fate_;            ///< [slot] after one column
  std::vector<std::uint64_t> timely_;
  std::vector<std::uint64_t> completed_;
  std::vector<std::uint64_t> misses_;
  std::vector<std::uint64_t> packed_;  ///< the lane loop's, unpacked above
  std::vector<RunningStats> response_;
  std::vector<std::uint64_t> ctx_delta_;  ///< [slot]
  std::vector<std::int64_t> ring_;        ///< [column % ring_rows_][slot] arrivals
  std::vector<std::vector<double>> benefit_sums_;  ///< [task][hits]

  // The exact merge.
  std::vector<Duration> rep_draws_;
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

  const TaskCache& cache(std::uint32_t task) const {
    return recorder_.task_cache()[task];
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

    // Both paths validate the inputs in ProtocolCore::reset; only the
    // arity has to hold before the eligibility check indexes decisions.
    if (tasks.size() != decisions.size()) {
      throw std::invalid_argument("simulate: decisions arity mismatch");
    }
    const std::unique_ptr<server::ResponseModel> server = prototype.clone();

    bool fast = skeleton_eligible(config);
    for (std::size_t i = 0; fast && i < tasks.size(); ++i) {
      fast = !decisions[i].offloaded() || tasks[i].post_wcet.is_zero();
    }
    Skeleton sk;
    if (fast) {
      sk = recorder_.record(tasks, decisions, config, profile);
      fast = sk.valid;
    }
    if (fast) {
      prepare(sk, config.horizon.ns(), tasks.size());
      const std::size_t block = server->is_stateless() ? kLanes : 1;
      for (std::size_t r0 = 0; r0 < replications; r0 += block) {
        run_block(result, sk, r0, std::min(block, replications - r0), tasks,
                  decisions, *server, config, profile);
      }
    } else {
      for (std::size_t r = 0; r < replications; ++r) {
        run_fallback(result, r, tasks, decisions, *server, config, profile);
      }
    }
    for (const SimMetrics& m : result.per_replication) result.aggregate.add(m);
    return result;
  }

  /// Per-skeleton setup: sizes the lane buffers, finds each column's
  /// colliding columns, and empties the outcome table.
  void prepare(const Skeleton& sk, std::int64_t horizon, std::size_t n) {
    const std::size_t columns = sk.draws.size();
    // An arrival of column c lies in (send_c, send_c + R_c], so it can
    // share a nanosecond only with a column whose window passes send_c.
    // Draws are in send order, so those columns are the "active" ones.
    std::vector<std::uint32_t> active;
    std::vector<std::uint32_t> reach;  // column indices for now
    columns_.assign(columns, Column{});
    std::size_t span = 0;
    for (std::size_t c = 0; c < columns; ++c) {
      const std::int64_t send = sk.draws[c].send_ns;
      std::erase_if(active, [&](std::uint32_t e) {
        return sk.draws[e].send_ns + sk.draws[e].window_ns <= send;
      });
      columns_[c].reach0 = static_cast<std::uint32_t>(reach.size());
      columns_[c].reaches = static_cast<std::uint32_t>(active.size());
      reach.insert(reach.end(), active.begin(), active.end());
      if (!active.empty()) span = std::max<std::size_t>(span, c - active.front());
      active.push_back(static_cast<std::uint32_t>(c));
    }
    ring_rows_ = std::bit_ceil(span + 1);
    reach_rows_.resize(reach.size());
    for (std::size_t k = 0; k < reach.size(); ++k) {
      reach_rows_[k] =
          static_cast<std::uint32_t>((reach[k] & (ring_rows_ - 1)) * kLanes);
    }
    bounds_.clear();
    pop_at_.clear();
    outcomes_.clear();
    built_ = 0;
    build_pop_ = 0;
    horizon_ = horizon;

    rngs_.assign(kLanes, Rng(0));
    lane_of_.resize(kLanes);
    row_.resize(kLanes);
    fate_.resize(kLanes);
    ring_.resize(ring_rows_ * kLanes);
    timely_.resize(n * kStride);
    completed_.resize(n * kStride);
    misses_.resize(n * kStride);
    packed_.resize(n * kStride);
    benefit_sums_.assign(n, std::vector<double>{0.0});
    response_.resize(n * kStride);
    ctx_delta_.resize(kStride);
    rep_draws_.resize(columns);
    n_ = n;
  }

  // ---- the outcome table ----

  /// Appends column c's intervals. Within one interval no skeleton event
  /// happens, and a post is zero-length: so the interval its arrival lands
  /// in decides everything the post does (classify).
  void build_column(const Skeleton& sk, std::size_t c) {
    const SkelDraw& d = sk.draws[c];
    const std::int64_t top = d.send_ns + d.window_ns;
    const std::int64_t last_ns = horizon_ - 1;  // the last instant that pops
    Column& col = columns_[c];
    col.bound0 = static_cast<std::uint32_t>(bounds_.size());
    col.interval0 = static_cast<std::uint32_t>(outcomes_.size());
    // Sends are in order, so the first pop after the send only moves
    // forward; the window's walk starts there.
    while (build_pop_ < sk.pops.size() && sk.pops[build_pop_].time_ns <= d.send_ns) {
      ++build_pop_;
    }
    std::size_t q = build_pop_;
    std::int64_t lo = d.send_ns;
    for (;;) {
      while (q < sk.pops.size() && sk.pops[q].time_ns <= lo) ++q;
      if (lo >= last_ns) {
        outcomes_.push_back(0);  // never popped
        pop_at_.push_back(kNoPopAt);
        break;
      }
      outcomes_.push_back(classify(sk, q, lo, d.deadline_ns));
      // The interval ends at the next pop, the deadline or the last
      // instant before the horizon, whichever comes first.
      std::int64_t hi = std::min(top, last_ns);
      if (lo < d.deadline_ns) hi = std::min(hi, d.deadline_ns);
      const bool pop = q < sk.pops.size() && sk.pops[q].time_ns <= hi;
      if (pop) hi = sk.pops[q].time_ns;
      pop_at_.push_back(pop ? hi : kNoPopAt);
      if (hi >= top) break;
      bounds_.push_back(hi);
      lo = hi;
    }
    col.bounds = static_cast<std::uint32_t>(bounds_.size() - col.bound0);
  }

  /// The outcome of a post with key `deadline` arriving after lo and before
  /// pops[q], the first pop after lo.
  std::uint64_t classify(const Skeleton& sk, std::size_t q, std::int64_t lo,
                         std::int64_t deadline) const {
    const SkelPop* before = q > 0 ? &sk.pops[q - 1] : nullptr;
    const std::uint32_t seg = before != nullptr ? before->seg_after : kNoSlot;
    const auto done = [](bool miss, std::uint64_t switches) {
      return std::uint64_t{1} << kTimelyAt | std::uint64_t{1} << kDoneAt |
             std::uint64_t{miss} << kMissAt | switches << kCtxAt;
    };
    // Run at once, the post completes at its arrival: past the deadline
    // iff the whole interval is.
    if (seg == kNoSlot) return done(lo >= deadline, 1);  // idle -> post -> idle
    if (deadline < sk.segments[seg].key) {
      return done(lo >= deadline, 2);  // preempt + resume
    }
    // Pending behind the running job, it completes at the first segment
    // end where the next segment does not start at once or does not run
    // before it.
    const Pending post{deadline, before->releases, 0};
    std::size_t s = seg;
    while (s + 1 < sk.segments.size() &&
           sk.segments[s + 1].start_ns == sk.segments[s].end_ns &&
           !runs_before(post, sk.segments[s + 1])) {
      ++s;
    }
    const std::int64_t end = sk.segments[s].end_ns;
    if (end < horizon_) return done(end > deadline, 1);
    // Cut off by the horizon, like a serial run with it queued.
    return std::uint64_t{1} << kTimelyAt;
  }

  // ---- the lanes ----

  std::size_t at(std::uint32_t task, std::size_t slot) const {
    return task * kStride + slot;
  }

  void clear_slot(std::size_t slot) {
    for (std::uint32_t i = 0; i < n_; ++i) {
      const std::size_t k = at(i, slot);
      timely_[k] = completed_[k] = misses_[k] = packed_[k] = 0;
      response_[k] = RunningStats{};
    }
    ctx_delta_[slot] = 0;
  }

  void move_slot(std::size_t from, std::size_t to) {
    rngs_[to] = rngs_[from];
    lane_of_[to] = lane_of_[from];
    for (std::uint32_t i = 0; i < n_; ++i) {
      const std::size_t f = at(i, from);
      const std::size_t t = at(i, to);
      timely_[t] = timely_[f];
      completed_[t] = completed_[f];
      misses_[t] = misses_[f];
      packed_[t] = packed_[f];
      response_[t] = response_[f];
    }
    ctx_delta_[to] = ctx_delta_[from];
    for (std::size_t row = 0; row < ring_.size(); row += kLanes) {
      ring_[row + to] = ring_[row + from];
    }
  }

  /// Adds the live slots' packed counters into their wide ones.
  void unpack(std::size_t live) {
    for (std::uint32_t i = 0; i < n_; ++i) {
      for (std::size_t s = 0; s < live; ++s) {
        const std::size_t k = at(i, s);
        const std::uint64_t p = packed_[k];
        timely_[k] += field(p, kTimelyAt);
        completed_[k] += field(p, kDoneAt);
        misses_[k] += field(p, kMissAt);
        ctx_delta_[s] += field(p, kCtxAt);
        packed_[k] = 0;
      }
    }
  }

  /// `hits` additions of the task's timely benefit, in a row from 0.
  double benefit_of(std::uint32_t task, std::uint64_t hits) {
    std::vector<double>& sums = benefit_sums_[task];
    while (sums.size() <= hits) {
      sums.push_back(sums.back() + cache(task).timely_benefit);
    }
    return sums[hits];
  }

  /// The skeleton's metrics plus slot's (unpacked) counters.
  SimMetrics materialize(const Skeleton& sk, std::size_t slot) {
    SimMetrics m = sk.base;
    for (std::uint32_t i = 0; i < n_; ++i) {
      TaskMetrics& tm = m.per_task[i];
      const std::size_t k = at(i, slot);
      tm.timely_results += timely_[k];
      tm.completed += completed_[k];
      tm.deadline_misses += misses_[k];
      tm.accrued_benefit += benefit_of(i, completed_[k] - misses_[k]);
      tm.observed_response_ms = response_[k];
    }
    m.context_switches += ctx_delta_[slot];
    return m;
  }

  /// Replications [r0, r0 + lanes) in one column loop: per column one
  /// sample_n for the live lanes, then each lane's window check, response
  /// statistics and table lookup. A stateful model runs one lane a block.
  void run_block(BatchResult& result, const Skeleton& sk, std::size_t r0,
                 std::size_t lanes, const core::TaskSet& tasks,
                 const core::DecisionVector& decisions,
                 server::ResponseModel& server, const SimConfig& config,
                 const RequestProfile& profile) {
    server.reset();
    for (std::size_t s = 0; s < lanes; ++s) {
      rngs_[s] = Rng(derive_seed(config.seed, r0 + s));
      lane_of_[s] = static_cast<std::uint32_t>(s);
      clear_slot(s);
    }
    std::size_t live = lanes;
    const std::size_t ring_mask = ring_rows_ - 1;
    for (std::size_t c = 0; c < sk.draws.size() && live > 0; ++c) {
      if (c == built_) build_column(sk, built_++);
      if (c % kUnpackColumns == kUnpackColumns - 1) unpack(live);
      const SkelDraw& d = sk.draws[c];
      server::Request req = cache(d.task).req;
      req.send_time = TimePoint{d.send_ns};
      server.sample_n(req, std::span<Rng>(rngs_.data(), live),
                      std::span<Duration>(row_.data(), live));

      const Column& col = columns_[c];
      const std::int64_t* bounds = bounds_.data() + col.bound0;
      const std::int64_t* pop_at = pop_at_.data() + col.interval0;
      const std::uint64_t* outcomes = outcomes_.data() + col.interval0;
      const std::uint32_t* reach = reach_rows_.data() + col.reach0;
      const std::size_t base = at(d.task, 0);
      std::uint64_t* packed = packed_.data() + base;
      RunningStats* response = response_.data() + base;
      const std::int64_t* ring = ring_.data();
      std::int64_t* here = ring_.data() + (c & ring_mask) * kLanes;
      bool any_left = false;
      for (std::size_t s = 0; s < live; ++s) {
        const Duration resp = row_[s];
        // Statistics in draw order, as the serial engine records them at
        // send; a late lane's are never read.
        response[s].add(resp.ms());
        const bool late = resp.ns() > d.window_ns;
        const std::int64_t a = d.send_ns + (late ? d.window_ns : resp.ns());
        const std::uint32_t k = interval_of(bounds, col.bounds, a);
        bool same_ns = false;
        for (std::uint32_t e = 0; e < col.reaches; ++e) {
          same_ns |= ring[reach[e] + s] == a;
        }
        here[s] = a;
        const bool exact = (a == pop_at[k]) | (resp.ns() <= 0) |
                           (same_ns & (a < horizon_));
        packed[s] += outcomes[k];
        const Replay fate =
            late ? Replay::kWindow : (exact ? Replay::kExact : Replay::kFast);
        fate_[s] = fate;
        any_left |= fate != Replay::kFast;
      }
      if (!any_left) continue;
      // Top down, so the last live slot moved into a leaving one's place
      // has already been checked.
      for (std::size_t s = live; s-- > 0;) {
        if (fate_[s] == Replay::kFast) continue;
        const std::size_t r = r0 + lane_of_[s];
        if (fate_[s] == Replay::kWindow) {
          bail(result, r, Replay::kWindow, tasks, decisions, server, config,
               profile);
        } else {
          exact_replay(result, sk, r, tasks, decisions, server, config,
                       profile);
        }
        if (s != --live) move_slot(live, s);
      }
    }
    unpack(live);
    for (std::size_t s = 0; s < live; ++s) {
      ++stats_.fast_replications;
      result.per_replication[r0 + lane_of_[s]] = materialize(sk, s);
    }
  }

  // ---- the exact merge, for lanes with a same-instant event ----

  /// Redraws replication r's responses and replays them exactly, or
  /// bails the replication to the serial engine.
  void exact_replay(BatchResult& result, const Skeleton& sk, std::size_t r,
                    const core::TaskSet& tasks,
                    const core::DecisionVector& decisions,
                    server::ResponseModel& server, const SimConfig& config,
                    const RequestProfile& profile) {
    ++stats_.exact_replays;
    clear_slot(kScratch);
    while (built_ < sk.draws.size()) build_column(sk, built_++);
    // The sample_n == sample contract makes these the lane's draws.
    server.reset();
    Rng rng(derive_seed(config.seed, r));
    Replay outcome = Replay::kFast;
    for (std::size_t c = 0; c < sk.draws.size(); ++c) {
      server::Request req = cache(sk.draws[c].task).req;
      req.send_time = TimePoint{sk.draws[c].send_ns};
      rep_draws_[c] = server.sample(req, rng);
      if (rep_draws_[c].ns() > sk.draws[c].window_ns) {
        outcome = Replay::kWindow;
        break;
      }
    }
    if (outcome == Replay::kFast) outcome = replay(sk, kScratch);
    if (outcome != Replay::kFast) {
      bail(result, r, outcome, tasks, decisions, server, config, profile);
      return;
    }
    ++stats_.fast_replications;
    result.per_replication[r] = materialize(sk, kScratch);
  }

  /// Replays the posts of the timely draws rep_draws_ over the skeleton
  /// into `slot`'s counters: the outcome table's for a post alone on its
  /// nanosecond, a tie step for each instant where posts meet other events.
  Replay replay(const Skeleton& sk, std::size_t slot) {
    const std::size_t columns = sk.draws.size();
    // Response statistics, in draw order as the serial engine records them,
    // and each arrival's interval of the outcome table.
    arrivals_.resize(columns);
    for (std::size_t c = 0; c < columns; ++c) {
      const SkelDraw& d = sk.draws[c];
      const Duration resp = rep_draws_[c];
      response_[at(d.task, slot)].add(resp.ms());
      const std::int64_t t = d.send_ns + resp.ns();
      const Column& col = columns_[c];
      const std::uint32_t k =
          interval_of(bounds_.data() + col.bound0, col.bounds, t);
      arrivals_[c] =
          Arrival{t, d.send_ns, d.deadline_ns, d.task, col.interval0 + k};
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
      if (a.time_ns >= horizon_) break;  // never popped by the serial engine
      std::size_t end = i + 1;
      while (end < arrivals_.size() && arrivals_[end].time_ns == a.time_ns) ++end;
      if (end == i + 1 && a.time_ns > a.send_ns &&
          pop_at_[a.interval] != a.time_ns) {
        // Alone on its nanosecond, the post is independent of every other
        // post: the table holds its outcome.
        const std::uint64_t o = outcomes_[a.interval];
        const std::size_t k = at(a.task, slot);
        timely_[k] += field(o, kTimelyAt);
        completed_[k] += field(o, kDoneAt);
        misses_[k] += field(o, kMissAt);
        cur.ctx += field(o, kCtxAt);
        ++i;
        continue;
      }
      advance_to(sk, cur, slot, a.time_ns);
      while (cur.pop < sk.pops.size() && sk.pops[cur.pop].time_ns < a.time_ns) {
        ++cur.pop;
      }
      if (!tie_step(sk, cur, slot, i, end)) return Replay::kTie;
      ++ties;
      i = end;
    }
    advance_to(sk, cur, slot, horizon_);
    // Posts still pending at the horizon never complete -- their timely
    // arrival was counted, the completion was cut off, like the serial
    // engine breaking its loop with jobs in the ready queue.
    ctx_delta_[slot] = cur.ctx;
    stats_.tie_instants += ties;
    return Replay::kFast;
  }

  void complete_post(std::size_t slot, std::uint32_t task, std::int64_t t,
                     std::int64_t deadline) {
    const std::size_t k = at(task, slot);
    ++completed_[k];
    if (t > deadline) ++misses_[k];
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
  void drain(const Skeleton& sk, Cursor& cur, std::size_t slot,
             std::int64_t t, std::uint32_t next) {
    while (!pending_.empty()) {
      const std::size_t best = best_post();
      if (next != kNoSlot && !runs_before(pending_[best], sk.segments[next])) {
        break;
      }
      ++cur.ctx;
      complete_post(slot, pending_[best].task, t, pending_[best].deadline_ns);
      // Order-preserving removal keeps pending_ in push order.
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
    }
  }

  /// Advances past every segment boundary strictly before t.
  void advance_to(const Skeleton& sk, Cursor& cur, std::size_t slot,
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
      drain(sk, cur, slot, end,
            next_starts ? static_cast<std::uint32_t>(cur.seg + 1) : kNoSlot);
      ++cur.seg;
    }
  }

  /// Steps the serial engine through every event at T, the instant of
  /// arrivals_[a0, a1): those arrivals, the skeleton pops at T, and the
  /// slice ends armed at T. Pre-T events pop in push order; slice ends
  /// pushed at T pop after them, in arming order. Returns false on a
  /// response of zero or less, whose arrival is not pushed before T.
  bool tie_step(const Skeleton& sk, Cursor& cur, std::size_t slot,
                std::size_t a0, std::size_t a1) {
    const std::int64_t t = arrivals_[a0].time_ns;
    for (std::size_t a = a0; a < a1; ++a) {
      if (arrivals_[a].send_ns >= t) return false;  // response <= 0
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
        ++timely_[at(ar.task, slot)];
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
          complete_post(slot, done.task, t, done.deadline_ns);
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


  /// Counts a replication the skeleton cannot represent and runs it
  /// through the serial engine.
  void bail(BatchResult& result, std::size_t r, Replay why,
            const core::TaskSet& tasks, const core::DecisionVector& decisions,
            server::ResponseModel& server, const SimConfig& config,
            const RequestProfile& profile) {
    ++(why == Replay::kWindow ? stats_.bailed_window : stats_.bailed_tie);
    ++stats_.bailed_replications;
    run_fallback(result, r, tasks, decisions, server, config, profile);
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

  std::int64_t horizon_ = 0;
  std::size_t n_ = 0;  ///< tasks
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
