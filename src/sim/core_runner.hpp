#pragma once
// The one simulation driver of the protocol core (protocol_core.hpp). It
// runs every SimEngine run, and it records the batch engine's skeleton and
// runs its resync windows (batch_engine.cpp). Definitions in engine.cpp.
//
// The serial engine's historical order is (time, seq) over one push
// counter. The driver spells it out as (time, push instant, rank, seq): on
// one instant an event pushed earlier pops first, and among pushes on one
// instant, releases go in their pop order (rank 2k + 1 for the k-th) and
// any other push between them (rank 2m after m releases), in push order.
// Events come from three places:
//   * releases, from a heap of each task's next release. A periodic run
//     that reaches its horizon leaves the releases it popped behind as a
//     schedule, which depends only on the periods and the horizon: the
//     next periodic run with the same periods and horizon (and every
//     window of a recorded skeleton) takes its releases from it instead.
//     Sporadic gaps are drawn mid-run, so a sporadic run always uses the
//     heap;
//   * the one armed slice end, in a register;
//   * offloads in flight (a reply or a compensation timer), in a 4-ary
//     heap that holds nothing else.

#include <cstdint>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "sim/engine.hpp"
#include "sim/protocol_core.hpp"

namespace rt::sim::detail {

/// No instant: no arrival or pop equals it, and every instant is above it.
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::min();
/// No instant yet: above every instant.
constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::max();
/// What every engine throws for a response time below zero, which would
/// put the reply before its request.
inline constexpr const char* kNegativeResponse =
    "simulate: the server model returned a negative response time";

/// One request send point of the skeleton, in serial draw order.
struct SkelDraw {
  std::int64_t send_ns = 0;      ///< setup completion = request send time
  std::int64_t window_ns = 0;    ///< decision R: timely iff response <= R
  std::int64_t deadline_ns = 0;  ///< job deadline (also the post's EDF key)
  std::int64_t idle_ns = 0;      ///< idle_before(send_ns)
  std::uint32_t task = 0;
};

/// Maximal dispatch interval of one skeleton sub-job.
struct SkelSegment {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t key = 0;   ///< EDF priority of the job occupying the interval
  std::uint64_t seq = 0;  ///< the job's sub-job seq: its release's rank
};

/// What one skeleton pop did, for a window's share of the metrics.
enum PopFlag : std::uint8_t {
  kCompletion = 1,  ///< a slice end; otherwise a release
  kSwitched = 2,    ///< its dispatch counted a context switch
  kSetupDone = 4,   ///< it completed a setup (an offload attempt)
  kLocalDone = 8,   ///< it completed a local job
  kMissed = 16,     ///< that completion was past its deadline
};

/// One skeleton event pop, in pop order.
struct SkelPop {
  std::int64_t time_ns = 0;
  /// Skeleton sub-jobs released so far, this pop included. A post whose
  /// arrival pops after this one ranks behind exactly these on a key tie.
  std::uint64_t releases = 0;
  /// Segment running after this pop's dispatch, or kNoSlot (CPU idle).
  std::uint32_t seg_after = kNoSlot;
  std::uint32_t task = 0;  ///< the task released or completed
  std::uint8_t flags = 0;  ///< PopFlag bits
};

struct Skeleton {
  std::vector<SkelDraw> draws;
  std::vector<SkelSegment> segments;
  std::vector<SkelPop> pops;
  /// Pop instants just before which the CPU was idle: busy period starts.
  std::vector<std::int64_t> idle_starts;
  /// The replication-invariant metrics: releases, attempts, local work,
  /// skeleton context switches and all of cpu_busy (posts take no time).
  SimMetrics base;
};

/// An offload of one lane in flight: one a window inherits at t0, or one
/// it leaves behind at t1 (loose).
struct Flight {
  std::int64_t time_ns = 0;      ///< arrival, or the compensation timer
  std::int64_t send_ns = 0;      ///< push instant of its event
  std::int64_t deadline_ns = 0;  ///< job deadline = EDF key of the post
  std::uint32_t task = 0;
  std::uint32_t rank = 0;  ///< releases popped on the send's instant before it
  bool timer = false;
  bool counted = false;  ///< its outcome is in the lane's table counters
};

class CoreRunner : public ProtocolCore<CoreRunner> {
 public:
  static constexpr const char* kName = "simulate";

  using ProtocolCore::task_cache;

  /// SimEngine::run: a run from 0 that draws every send from `server`
  /// with the run's Rng.
  SimResult simulate(const core::TaskSet& tasks, const core::DecisionVector& decisions,
                     server::ResponseModel& server, const SimConfig& config,
                     const RequestProfile& profile);
  [[nodiscard]] const EngineStats& stats() const { return stats_; }

  /// The batch skeleton: a run from 0 in which a send becomes a draw and
  /// is never resolved.
  Skeleton record(const core::TaskSet& tasks, const core::DecisionVector& decisions,
                  const SimConfig& config, const RequestProfile& profile);

  /// Re-enters the run of the last record() at t0 with the lane's
  /// `flights`; `reuse` lists the columns the core sends first, with their
  /// draws (late_results already counted), and later sends draw from the
  /// lane's `rng`. The core counts into the lane's `metrics` until
  /// close(), with CPU time and context switches from zero.
  void open(std::int64_t t0, const std::vector<Flight>& flights,
            const std::vector<Flight>& reuse, const Rng& rng,
            server::ResponseModel& server, std::vector<TaskMetrics>& metrics);

  /// Hands the lane's metrics and Rng back.
  void close(std::vector<TaskMetrics>& metrics, Rng& rng);

  /// Steps events until, past `must_pass` and the reused draws, the CPU
  /// is idle with no compensation timer due before the horizon, returning
  /// that instant t1; or to the horizon, returning kNever. In a window the
  /// skeleton is idle at t1 too: the lane runs the skeleton's work plus
  /// compensations, so under a work-conserving scheduler its backlog is
  /// never the smaller. Events popped are counted into `events`.
  std::int64_t run(std::int64_t must_pass, std::uint64_t& events);

  /// The window's CPU time and context switches.
  [[nodiscard]] const SimMetrics& totals() const { return metrics_; }

  /// The offloads in flight before the horizon when run() returned, in
  /// push order (seq order); the window is over, so the heap can go.
  void in_flight(std::vector<Flight>& out);

  // ---- the driver hooks of ProtocolCore ----

  void arm_slice(TimePoint end) { slice_key_ = push_key(end.ns()); }
  void cancel_slice() { slice_key_.time = kNone; }
  /// Recording, a send becomes a draw. Otherwise the reused draws come
  /// first, then the server's.
  void send_offload(const Offload& job, const TaskCache& tc);

 private:
  /// rank << kSeqBits | seq. A task releases at most once an instant, so
  /// a rank is below 2n + 2 for n tasks and fits the 24 bits above the seq
  /// for any set under 2^23 tasks; a run pushes fewer than 2^40 events.
  static constexpr unsigned kSeqBits = 40;

  struct Key {
    std::int64_t time = kNone;
    std::int64_t pushed = 0;
    std::uint64_t order = 0;  ///< rank << kSeqBits | seq

    friend bool operator<(const Key& a, const Key& b) {
      if (a.time != b.time) return a.time < b.time;
      if (a.pushed != b.pushed) return a.pushed < b.pushed;
      return a.order < b.order;
    }
  };

  /// An offload in flight: a result arrival, or a compensation timer.
  struct Event {
    Key key;
    std::int64_t deadline = 0;  ///< the job deadline
    std::uint64_t job_id = 0;
    std::uint32_t task = 0;
    std::uint8_t mode = 0;
    bool timer = false;

    friend bool operator<(const Event& a, const Event& b) { return a.key < b.key; }
  };

  /// A release of the schedule: its task, and its rank among the releases
  /// popped on its push instant, one period earlier (at start: the task
  /// index). Its instant is the task's next one, release_at_.
  struct Release {
    std::uint32_t task = 0;
    std::uint32_t rank = 0;
  };

  /// A task's next release, in a heap on key_of's order.
  struct Next {
    std::int64_t time = 0;
    std::int64_t pushed = kNever;
    Release r;

    friend bool operator<(const Next& a, const Next& b) {
      return std::tie(a.time, a.pushed, a.r.rank) < std::tie(b.time, b.pushed, b.r.rank);
    }
  };

  static Key key_of(const Next& n) {
    return Key{n.time, n.pushed, (2 * std::uint64_t{n.r.rank} + 1) << kSeqBits};
  }

  /// The key of schedule_[i] (past the end: none).
  Key scheduled_key(std::size_t i) const {
    if (i == schedule_.size()) return Key{};
    const Release r = schedule_[i];
    const std::int64_t t = release_at_[r.task];
    return key_of(Next{t, t == 0 ? kNever : t - schedule_periods_[r.task], r});
  }

  std::uint32_t rank_now() const { return instant_ == now_.ns() ? released_ : 0; }

  Key push_key(std::int64_t at) {
    return Key{at, now_.ns(), (2 * std::uint64_t{rank_now()}) << kSeqBits | event_seq_++};
  }

  void begin(std::int64_t t0);
  void pop_release();
  void begin_pop(std::int64_t t, std::int64_t last);
  void end_pop(std::uint64_t switches);

  EngineStats stats_;
  server::ResponseModel* server_ = nullptr;

  // ---- releases ----
  /// The periodic schedule, and the periods and horizon it holds; the
  /// horizon is kNever until a run has popped every release before it.
  std::vector<Release> schedule_;
  std::vector<std::int64_t> schedule_periods_;
  std::int64_t schedule_horizon_ = kNever;
  /// How this run releases: replaying schedule_, or popping next_ and
  /// building schedule_ (periodic) or not (sporadic).
  enum class Source : std::uint8_t { kReplay, kBuild, kSporadic } source_ = Source::kReplay;
  std::size_t next_release_ = 0;          ///< replaying: the next entry
  std::vector<std::int64_t> release_at_;  ///< replaying: each task's next
  std::vector<Next> next_;  ///< 4-ary heap of each task's next release
  Key release_key_;         ///< the next release's
  std::int64_t instant_ = kNever;  ///< the instant of the last release pop
  std::uint32_t released_ = 0;     ///< releases popped on that instant

  std::vector<Event> events_;  ///< 4-ary min-heap of the offloads in flight
  std::uint64_t event_seq_ = 0;
  std::size_t timers_ = 0;  ///< timers in events_ due before the horizon
  Key slice_key_;
  std::span<const Flight> reuse_;
  std::size_t reuse_next_ = 0;

  // ---- recording a skeleton ----
  bool recording_ = false;
  Skeleton sk_;  ///< the skeleton record() is filling
  SubJob ran_;   ///< the sub-job running into the pop being recorded
  SkelPop pop_;  ///< the pop being recorded
  std::int64_t seg_start_ = 0;  ///< start of the running sub-job's segment
};

}  // namespace rt::sim::detail
