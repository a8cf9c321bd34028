// Batched replication engine (see batch_engine.hpp for the contract and
// docs/ANALYSIS.md §12 for the rules).
//
// Parity. Under the skeleton preconditions only result posts depend on a
// draw, and they have zero length: a post alone on its nanosecond, off the
// skeleton's pops and the lane's other arrivals, changes nothing but its
// own outcome. So each draw column's window is split at the pops, the
// deadline and the horizon into intervals with one outcome each.
//
// Resync windows. A lane diverges on a late or missing response (its
// compensation has length), a zero response, or an arrival on the
// nanosecond of a pop or of another of its arrivals. From t0, the last
// instant at or before the divergence just before which the skeleton was
// idle, the protocol core runs for the lane alone until its CPU is idle
// past the divergence with no compensation timer due (t1); the lane then
// rejoins at the first column sent after t1. Both are states the skeleton
// resumes from: no work is pending (the lane's backlog is never below the
// skeleton's), periodic releases make both wait for each task's next
// release, and their (time, seq) order follows from the release history.
// The window resends the columns the loop drew from t0 on with their draws
// and draws later sends from the lane's Rng in the core's send order, so
// at t1 the Rng stands where the serial run's does. Arrivals still in
// flight at t1 are loose: counted like table entries when alone on their
// nanosecond off the pops, else the lane's next divergence.
//
// One sum in serial order: accrued_benefit folds the lane's table hits
// into its running sum before each window, whose core continues it.
// observed_response_ms holds exact integer moments, which no order
// changes: the column loop's draws and the windows' accumulate apart and
// are merged when the replication is materialized.

#include "sim/batch_engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/sink.hpp"
#include "sim/core_runner.hpp"
#include "util/rng.hpp"

namespace rt::sim {

namespace {

using namespace detail;
/// No column: a lane that waits for none.
constexpr std::size_t kNoColumn = std::numeric_limits<std::size_t>::max();
/// Lanes one block advances together.
constexpr std::size_t kLanes = 128;

/// Tie precheck: a completion on the nanosecond of a release pop would
/// push a request and a release in one instant, which a window could not
/// order from push instants alone. Such an instant has two adjacent pops
/// of different kinds.
bool ties_replayable(const std::vector<SkelPop>& pops) {
  for (std::size_t i = 1; i < pops.size(); ++i) {
    if (pops[i].time_ns == pops[i - 1].time_ns &&
        ((pops[i].flags ^ pops[i - 1].flags) & kCompletion) != 0) {
      return false;
    }
  }
  return true;
}

/// Index of the first element of `v` (sorted on `time`) at or after t.
template <typename T>
std::size_t first_at(const std::vector<T>& v, std::int64_t T::*time, std::int64_t t) {
  return static_cast<std::size_t>(
      std::lower_bound(v.begin(), v.end(), t,
                       [time](const T& x, std::int64_t y) { return x.*time < y; }) -
      v.begin());
}

/// The first draw column sent at or after t.
std::size_t column_at(const Skeleton& sk, std::int64_t t) {
  return first_at(sk.draws, &SkelDraw::send_ns, t);
}

/// The last instant at or before t just before which the skeleton's CPU
/// was idle: t itself, or the start of the busy period holding t.
std::int64_t idle_before(const Skeleton& sk, std::int64_t t) {
  const std::size_t q = first_at(sk.pops, &SkelPop::time_ns, t);
  if (q == 0 || sk.pops[q - 1].seg_after == kNoSlot) return t;
  return *(std::upper_bound(sk.idle_starts.begin(), sk.idle_starts.end(), t - 1) - 1);
}

/// What a timely post arriving in one interval of its column adds to its
/// lane, in 16-bit fields so one addition counts them all.
enum OutcomeField : unsigned {
  kTimelyAt = 0,  ///< 0 past the horizon: the arrival never pops
  kDoneAt = 16,   ///< the post completes before the horizon
  kMissAt = 32,   ///< ... after its job deadline
  kCtxAt = 48,    ///< context switches beyond the skeleton's
};
/// A column adds at most 2 to a field: unpack at least this often.
constexpr std::size_t kUnpackColumns = 0x7FFF;

std::uint64_t field(std::uint64_t packed, OutcomeField at) {
  return (packed >> at) & 0xFFFF;
}

/// The widest draw window R the column loop serves: arrivals and bounds
/// are stored as 32-bit offsets from their column's send, in [0, R].
constexpr std::int64_t kMaxWindow = std::numeric_limits<std::int32_t>::max();
/// Ring entries that are no arrival offset. An arrival offset is at most
/// R, and its offset from a later column's send (the offset plus a send
/// delta below the earlier window) at most 2 * kMaxWindow - 1: both stay
/// below these.
constexpr std::uint32_t kRingNone = 0xFFFFFFFF;   ///< a window's column
constexpr std::uint32_t kRingTimer = 0xFFFFFFFE;  ///< a timer at send + R
static_assert(2 * static_cast<std::uint64_t>(kMaxWindow) - 1 < kRingTimer);

/// Index of the interval of arrival offset `off`: the boundaries below it.
std::uint32_t interval_of(const std::int32_t* bounds, std::uint32_t n,
                          std::int32_t off) {
  std::uint32_t k = 0;
  for (std::uint32_t b = 0; b < n; ++b) {
    k += static_cast<std::uint32_t>(bounds[b] < off);
  }
  return k;
}

/// Draw column c's slice of the outcome table: its window (send, send + R]
/// split at the boundaries send + bounds_[bound0, bound0 + bounds),
/// interval k holding the arrivals in (bound k-1, bound k].
struct Column {
  std::uint32_t bound0 = 0;
  std::uint32_t bounds = 0;
  std::uint32_t interval0 = 0;  ///< first of the column's bounds + 1 intervals
  std::uint32_t reach0 = 0;     ///< first of its entries in reach_rows_
  std::uint32_t reaches = 0;    ///< earlier columns whose windows pass its send
};

/// One lane's windows: what they changed, what they left in flight, and
/// where the lane goes next.
struct LaneState {
  /// The windows' counts as modular deltas over the skeleton's, their
  /// draws' response moments, and an offloaded task's accrued_benefit as
  /// its sum in completion order with `folded` of its table hits added;
  /// `ctx` holds the table's too.
  std::vector<TaskMetrics> task;
  std::vector<std::uint64_t> folded;
  std::uint64_t ctx = 0;
  std::int64_t busy = 0;
  std::vector<Flight> loose;  ///< left in flight by the last window
  /// Parked: the column it rejoins at (kNoColumn: drawing or finished),
  /// and its Rng, which the loop's sample_n advances meanwhile.
  std::size_t resume = kNoColumn;
  Rng saved{0};
  /// The earliest divergence no window has run yet; its window opens at
  /// idle_before(pending_ns), before the lane draws column window_at.
  std::int64_t pending_ns = kNone;
  std::size_t window_at = kNoColumn;
};

/// Adds a run's replication split to `sink`: batch.fast_replications,
/// batch.fallback_replications, sim.batch.resync_windows and
/// .resync_events, and one sim.batch.ineligible.<cause> per fallback
/// cause. A null sink is a no-op.
void add_batch_counters(obs::Sink* sink, const BatchEngineStats& stats) {
  if (sink == nullptr) return;
  auto& reg = sink->registry();
  reg.counter("batch.fast_replications").inc(stats.fast_replications);
  reg.counter("batch.fallback_replications").inc(stats.fallback_replications);
  reg.counter("sim.batch.resync_windows").inc(stats.resync_windows);
  reg.counter("sim.batch.resync_events").inc(stats.resync_events);
  const std::pair<const char*, std::size_t> causes[] = {
      {"scheduler", stats.ineligible_scheduler},
      {"exec_policy", stats.ineligible_exec_policy},
      {"release_policy", stats.ineligible_release_policy},
      {"context_switch", stats.ineligible_context_switch},
      {"controller", stats.ineligible_controller},
      {"trace", stats.ineligible_trace},
      {"post_wcet", stats.ineligible_post_wcet},
      {"wide_window", stats.ineligible_wide_window},
      {"ties", stats.ineligible_ties},
  };
  for (const auto& [cause, count] : causes) {
    reg.counter(std::string("sim.batch.ineligible.") + cause).inc(count);
  }
}

/// A hit count below zero has wrapped: the lane's counters are broken,
/// and summing it would take about 2^64 additions. Out of line, so the
/// check costs the lane loop's callers nothing.
[[noreturn, gnu::cold, gnu::noinline]] void negative_hits(std::uint32_t task) {
  throw std::logic_error("batch: task " + std::to_string(task) +
                         " has a negative hit count");
}

}  // namespace

// ---------------------------------------------------------------------

struct BatchSimEngine::Impl {
  BatchEngineStats stats_;
  /// Records the skeleton, runs the windows and the serial replications.
  CoreRunner core_;

  // Outcome table, one slice per draw column, built as the first block
  // reaches the column.
  std::vector<Column> columns_;
  std::vector<std::int32_t> bounds_;  ///< offsets from the column's send, in (0, R)
  std::vector<std::int64_t> pop_at_;  ///< per interval: the pop at its upper end
  std::vector<std::uint64_t> outcomes_;  ///< per interval, packed
  std::size_t built_ = 0;             ///< columns built so far
  std::size_t build_pop_ = 0;         ///< first pop after the last built send
  /// Per column, the ring rows of its active columns, and their send
  /// deltas send_c - send_e, each below R_e.
  std::vector<std::uint32_t> reach_rows_;
  std::vector<std::uint32_t> reach_delta_;
  /// A power of two, deep enough for every column a window takes over.
  std::size_t ring_rows_ = 1;

  // One block's lanes; counters are [task][lane] (stride kLanes), table
  // outcomes only. benefit_sums_ holds the serial running sum per hits.
  std::vector<Rng> rngs_;
  std::vector<Duration> row_;    ///< [lane] one column's draws
  std::vector<char> live_mask_;  ///< [lane] drawing in the column loop
  std::vector<std::uint64_t> timely_;
  std::vector<std::uint64_t> completed_;
  std::vector<std::uint64_t> misses_;
  std::vector<std::uint64_t> packed_;  ///< the lane loop's, unpacked above
  std::vector<DurationStats> response_;  ///< the loop's draws (windows': LaneState)
  /// [column % ring_rows_][lane] arrival offsets from the column's send,
  /// kRingTimer or kRingNone.
  std::vector<std::uint32_t> ring_;
  std::vector<std::int64_t> loose_until_;  ///< [lane] latest counted loose arrival
  std::vector<std::vector<double>> benefit_sums_;  ///< [task][hits]
  std::vector<LaneState> lanes_;
  std::size_t live_ = 0;  ///< lanes drawing
  std::size_t span_ = 0;  ///< lanes up to the last one not finished
  std::size_t next_event_ = kNoColumn;  ///< the least resume or window_at

  // A window's inputs and scratch.
  std::vector<Flight> flights_;
  std::vector<Flight> reuse_;  ///< columns the window sends again

  std::int64_t horizon_ = 0;
  std::size_t n_ = 0;  ///< tasks

  const TaskCache& cache(std::uint32_t task) const { return core_.task_cache()[task]; }

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

    // Why the skeleton cannot serve the run, if it cannot.
    std::size_t* ineligible = config_cause(config);
    for (std::size_t i = 0; ineligible == nullptr && i < tasks.size(); ++i) {
      if (decisions[i].offloaded() && !tasks[i].post_wcet.is_zero()) {
        ineligible = &stats_.ineligible_post_wcet;
      }
    }
    Skeleton sk;
    if (ineligible == nullptr) {
      sk = core_.record(tasks, decisions, config, profile);
      if (std::ranges::any_of(sk.draws, [](const SkelDraw& d) {
            return d.window_ns > kMaxWindow;
          })) {
        ineligible = &stats_.ineligible_wide_window;
      } else if (!ties_replayable(sk.pops)) {
        ineligible = &stats_.ineligible_ties;
      }
    }
    if (ineligible == nullptr) {
      prepare(sk, config.horizon.ns(), tasks.size());
      const std::size_t block = server->is_stateless() ? kLanes : 1;
      for (std::size_t r0 = 0; r0 < replications; r0 += block) {
        run_block(result, sk, r0, std::min(block, replications - r0), *server,
                  config);
      }
    } else {
      *ineligible += replications;
      for (std::size_t r = 0; r < replications; ++r) {
        ++stats_.fallback_replications;
        server->reset();
        SimConfig cfg = config;
        cfg.seed = derive_seed(config.seed, r);
        result.per_replication[r] =
            core_.simulate(tasks, decisions, *server, cfg, profile).metrics;
      }
    }
    for (const SimMetrics& m : result.per_replication) {
      result.aggregate.add(m);
      add_sim_counters(config.sink, m, config.controller != nullptr);
    }
    add_batch_counters(config.sink, stats_);
    return result;
  }

  /// The counter of the first precondition `config` breaks, or null.
  std::size_t* config_cause(const SimConfig& config) {
    BatchEngineStats& st = stats_;
    if (config.scheduler_policy != SchedulerPolicy::kEdf) {
      return &st.ineligible_scheduler;
    }
    if (config.exec_policy != ExecTimePolicy::kAlwaysWcet) {
      return &st.ineligible_exec_policy;
    }
    if (config.release_policy != ReleasePolicy::kPeriodic) {
      return &st.ineligible_release_policy;
    }
    if (!config.context_switch_overhead.is_zero()) {
      return &st.ineligible_context_switch;
    }
    if (config.controller != nullptr) return &st.ineligible_controller;
    if (config.trace_capacity != 0) return &st.ineligible_trace;
    return nullptr;
  }

  /// Per-skeleton setup: sizes the lane buffers, finds each column's
  /// colliding columns, and empties the outcome table.
  void prepare(const Skeleton& sk, std::int64_t horizon, std::size_t n) {
    const std::size_t columns = sk.draws.size();
    // An arrival of column c can share a nanosecond only with an
    // "active" column, whose window passes send_c. A window opened at or
    // after column c's idle instant takes over the "held" columns, whose
    // windows reach it, so the ring keeps those too.
    std::vector<std::uint32_t> active;
    std::vector<std::uint32_t> held;
    std::vector<std::uint32_t> reach;  // column indices for now
    columns_.assign(columns, Column{});
    std::size_t span = 0;
    for (std::size_t c = 0; c < columns; ++c) {
      const SkelDraw& d = sk.draws[c];
      const auto end = [&sk](std::uint32_t e) {
        return sk.draws[e].send_ns + sk.draws[e].window_ns;
      };
      std::erase_if(active, [&](std::uint32_t e) { return end(e) <= d.send_ns; });
      std::erase_if(held, [&](std::uint32_t e) { return end(e) < d.idle_ns; });
      columns_[c].reach0 = static_cast<std::uint32_t>(reach.size());
      columns_[c].reaches = static_cast<std::uint32_t>(active.size());
      reach.insert(reach.end(), active.begin(), active.end());
      if (!held.empty()) span = std::max<std::size_t>(span, c - held.front());
      active.push_back(static_cast<std::uint32_t>(c));
      held.push_back(static_cast<std::uint32_t>(c));
    }
    ring_rows_ = std::bit_ceil(span + 1);
    reach_rows_.resize(reach.size());
    reach_delta_.resize(reach.size());
    for (std::size_t c = 0; c < columns; ++c) {
      const Column& col = columns_[c];
      for (std::uint32_t k = col.reach0; k < col.reach0 + col.reaches; ++k) {
        const std::uint32_t e = reach[k];
        reach_rows_[k] = static_cast<std::uint32_t>((e & (ring_rows_ - 1)) * kLanes);
        reach_delta_[k] =
            static_cast<std::uint32_t>(sk.draws[c].send_ns - sk.draws[e].send_ns);
      }
    }
    bounds_.clear();
    pop_at_.clear();
    outcomes_.clear();
    built_ = 0;
    build_pop_ = 0;
    horizon_ = horizon;

    rngs_.assign(kLanes, Rng(0));
    row_.resize(kLanes);
    live_mask_.resize(kLanes);
    ring_.resize(ring_rows_ * kLanes);
    for (auto* v : {&timely_, &completed_, &misses_, &packed_}) v->resize(n * kLanes);
    response_.resize(n * kLanes);
    loose_until_.resize(kLanes);
    lanes_.resize(kLanes);
    benefit_sums_.assign(n, std::vector<double>{0.0});
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
        pop_at_.push_back(kNever);
        break;
      }
      outcomes_.push_back(classify(sk, q, lo, d.deadline_ns));
      // The interval ends at the next pop, the deadline or the last
      // instant before the horizon, whichever comes first.
      std::int64_t hi = std::min(top, last_ns);
      if (lo < d.deadline_ns) hi = std::min(hi, d.deadline_ns);
      const bool pop = q < sk.pops.size() && sk.pops[q].time_ns <= hi;
      if (pop) hi = sk.pops[q].time_ns;
      pop_at_.push_back(pop ? hi : kNever);
      if (hi >= top) break;
      bounds_.push_back(static_cast<std::int32_t>(hi - d.send_ns));
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
    // before it, in the serial (key, seq) ready order: a skeleton job of
    // equal key runs first iff it was released before the post arrived.
    const std::uint64_t seq = before->releases;
    std::size_t s = seg;
    while (s + 1 < sk.segments.size() &&
           sk.segments[s + 1].start_ns == sk.segments[s].end_ns &&
           !(deadline < sk.segments[s + 1].key ||
             (deadline == sk.segments[s + 1].key && seq < sk.segments[s + 1].seq))) {
      ++s;
    }
    const std::int64_t end = sk.segments[s].end_ns;
    if (end < horizon_) return done(end > deadline, 1);
    // Cut off by the horizon, like a serial run with it queued.
    return std::uint64_t{1} << kTimelyAt;
  }

  /// The outcome of a loose arrival, which lands on no pop instant.
  std::uint64_t classify(const Skeleton& sk, const Flight& f) const {
    if (f.time_ns >= horizon_) return 0;
    return classify(sk, first_at(sk.pops, &SkelPop::time_ns, f.time_ns), f.time_ns - 1,
                    f.deadline_ns);
  }

  // ---- the lanes ----

  static std::size_t at(std::uint32_t i, std::size_t s) { return i * kLanes + s; }

  /// Adds (sign +1) or takes back (-1) packed outcomes in wide counters.
  void apply(std::size_t s, std::uint32_t task, std::uint64_t o, std::uint64_t sign) {
    const std::size_t k = at(task, s);
    timely_[k] += sign * field(o, kTimelyAt);
    completed_[k] += sign * field(o, kDoneAt);
    misses_[k] += sign * field(o, kMissAt);
    lanes_[s].ctx += sign * field(o, kCtxAt);
  }

  /// Adds the lane's packed counters into its wide ones.
  void unpack(std::size_t s) {
    for (std::uint32_t i = 0; i < n_; ++i) {
      apply(s, i, std::exchange(packed_[at(i, s)], 0), 1);
    }
  }

  /// `hits` additions of the task's benefit per completion (timely for an
  /// offloaded task, local for a local one), in a row from 0.
  double benefit_of(std::uint32_t task, std::uint64_t hits) {
    if (static_cast<std::int64_t>(hits) < 0) negative_hits(task);
    std::vector<double>& sums = benefit_sums_[task];
    const TaskCache& tc = cache(task);
    const double b = tc.offloaded ? tc.timely_benefit : tc.local_benefit;
    while (sums.size() <= hits) sums.push_back(sums.back() + b);
    return sums[hits];
  }

  /// `sum` followed by `hits` additions of the task's timely benefit.
  double fold(std::uint32_t task, double sum, std::uint64_t hits) {
    if (sum == 0.0) return benefit_of(task, hits);
    if (static_cast<std::int64_t>(hits) < 0) negative_hits(task);
    for (; hits > 0; --hits) sum += cache(task).timely_benefit;
    return sum;
  }

  /// The skeleton's metrics plus lane s's (unpacked) counters, window
  /// deltas and the loop's and windows' response moments.
  SimMetrics materialize(const Skeleton& sk, std::size_t s) {
    SimMetrics m = sk.base;
    const LaneState& l = lanes_[s];
    for (std::uint32_t i = 0; i < n_; ++i) {
      TaskMetrics& tm = m.per_task[i];
      const TaskMetrics& x = l.task[i];
      const std::size_t k = at(i, s);
      tm.timely_results += timely_[k] + x.timely_results;
      tm.completed += completed_[k] + x.completed;
      tm.deadline_misses += misses_[k] + x.deadline_misses;
      tm.offload_attempts += x.offload_attempts;
      tm.local_runs += x.local_runs;
      tm.compensations += x.compensations;
      tm.late_results += x.late_results;
      tm.observed_response_ms.merge(response_[k]);
      tm.observed_response_ms.merge(x.observed_response_ms);
      tm.accrued_benefit =
          cache(i).offloaded
              ? fold(i, x.accrued_benefit, completed_[k] - misses_[k] - l.folded[i])
              : benefit_of(i, tm.local_runs);
    }
    m.context_switches += l.ctx;
    m.cpu_busy_ns += l.busy;
    return m;
  }

  /// Replications [r0, r0 + lanes) in one column loop: per column one
  /// sample_n, then per drawing lane a window check, response statistics
  /// and a table lookup. A stateful model runs one lane a block.
  void run_block(BatchResult& result, const Skeleton& sk, std::size_t r0,
                 std::size_t lanes, server::ResponseModel& server,
                 const SimConfig& config) {
    server.reset();
    for (std::size_t s = 0; s < lanes; ++s) {
      rngs_[s] = Rng(derive_seed(config.seed, r0 + s));
      for (std::uint32_t i = 0; i < n_; ++i) {
        const std::size_t k = at(i, s);
        timely_[k] = completed_[k] = misses_[k] = packed_[k] = 0;
        response_[k] = DurationStats{};
      }
      loose_until_[s] = kNever;
      live_mask_[s] = 1;
      LaneState& l = lanes_[s];
      l.task.assign(n_, TaskMetrics{});
      l.folded.assign(n_, 0);
      l.ctx = 0;
      l.busy = 0;
      l.loose.clear();
      l.pending_ns = kNone;
      l.window_at = kNoColumn;
    }
    live_ = span_ = lanes;
    next_event_ = kNoColumn;
    const std::size_t columns = sk.draws.size();
    const std::size_t ring_mask = ring_rows_ - 1;
    // Per lane: the arrival offset, its interval, and whether an active
    // column's arrival shares its nanosecond.
    std::int32_t off[kLanes] = {};
    std::uint32_t interval[kLanes] = {};
    std::uint32_t same[kLanes] = {};
    for (std::size_t c = 0; c < columns; ++c) {
      if (live_ == 0) {
        if (next_event_ >= columns) break;
        c = next_event_;
      }
      if (c >= next_event_) dispatch(sk, c, server);
      if (live_ == 0) continue;
      while (built_ <= c) build_column(sk, built_++);
      if (c % kUnpackColumns == kUnpackColumns - 1) {
        for (std::size_t s = 0; s < lanes; ++s) unpack(s);
      }
      const SkelDraw& d = sk.draws[c];
      server::Request req = cache(d.task).req;
      req.send_time = TimePoint{d.send_ns};
      // Parked lanes draw too; they get their Rng back when they rejoin
      // (a stateful model runs one lane, so it never draws for one).
      server.sample_n(req, std::span<Rng>(rngs_.data(), span_),
                      std::span<Duration>(row_.data(), span_));

      const Column& col = columns_[c];
      const std::int32_t* bounds = bounds_.data() + col.bound0;
      const std::int64_t* pop_at = pop_at_.data() + col.interval0;
      const std::uint64_t* outcomes = outcomes_.data() + col.interval0;
      const std::uint32_t* reach = reach_rows_.data() + col.reach0;
      const std::uint32_t* delta = reach_delta_.data() + col.reach0;
      const std::size_t base = at(d.task, 0);
      std::uint64_t* packed = packed_.data() + base;
      DurationStats* response = response_.data() + base;
      const std::uint32_t* ring = ring_.data();
      std::uint32_t* here = ring_.data() + (c & ring_mask) * kLanes;
      const std::size_t lanes_now = span_;
      // Passes across the lanes, parked ones too (their results are not
      // used), in 32 bits so that baseline SSE2 compares four lanes at
      // once. The arrival offset: the response, or R for a late one.
      const auto window = static_cast<std::uint64_t>(d.window_ns);
      for (std::size_t s = 0; s < lanes_now; ++s) {
        off[s] = static_cast<std::int32_t>(
            std::min(static_cast<std::uint64_t>(row_[s].ns()), window));
        interval[s] = 0;
        same[s] = 0;
      }
      // The arrival's interval: the boundaries below it.
      for (std::uint32_t b = 0; b < col.bounds; ++b) {
        const std::int32_t bound = bounds[b];
        for (std::size_t s = 0; s < lanes_now; ++s) {
          interval[s] += static_cast<std::uint32_t>(bound < off[s]);
        }
      }
      // An active column's arrival on the same nanosecond: its offset
      // equals this one's plus the send delta.
      for (std::uint32_t e = 0; e < col.reaches; ++e) {
        const std::uint32_t* row = ring + reach[e];
        const std::uint32_t de = delta[e];
        for (std::size_t s = 0; s < lanes_now; ++s) {
          const auto mine = static_cast<std::uint32_t>(off[s]) + de;
          same[s] |= static_cast<std::uint32_t>(row[s] == mine);
        }
      }
      for (std::size_t s = 0; s < lanes_now; ++s) {
        if (!live_mask_[s]) continue;
        const Duration resp = row_[s];
        if (resp != server::kNoResponse) response[s].add(resp);
        const bool late = resp.ns() > d.window_ns;
        const std::int64_t a = d.send_ns + off[s];
        const std::uint32_t k = interval[s];
        bool same_ns = same[s] != 0;
        if (d.send_ns < loose_until_[s]) {
          same_ns |= std::ranges::any_of(lanes_[s].loose, [a](const Flight& f) {
            return f.counted && f.time_ns == a;
          });
        }
        here[s] = late ? kRingTimer : static_cast<std::uint32_t>(off[s]);
        packed[s] += outcomes[k];
        const bool leaves = late | (a == pop_at[k]) | (resp.ns() <= 0) |
                            (same_ns & (a < horizon_));
        if (!leaves) continue;
        if (resp.is_negative()) throw std::domain_error(kNegativeResponse);
        // The lane runs as before until the timer fires or the arrival
        // pops; its window opens at the idle instant before that, now if
        // the loop has drawn past it.
        LaneState& l = lanes_[s];
        if (resp != server::kNoResponse && late) ++l.task[d.task].late_results;
        l.pending_ns = std::min(l.pending_ns, a);
        l.window_at = column_at(sk, idle_before(sk, l.pending_ns));
        if (l.window_at <= c) {
          resync(sk, s, c + 1, server);
        } else {
          next_event_ = std::min(next_event_, l.window_at);
        }
      }
    }
    dispatch(sk, columns, server);  // windows after the last send
    for (std::size_t s = 0; s < lanes; ++s) {
      unpack(s);
      result.per_replication[r0 + s] = materialize(sk, s);
    }
    stats_.fast_replications += lanes;
  }

  /// Rejoins the lanes waiting for column c and opens the windows due
  /// before it; a window that ends before column c's send rejoins at once.
  void dispatch(const Skeleton& sk, std::size_t c, server::ResponseModel& server) {
    next_event_ = kNoColumn;
    for (std::size_t s = 0; s < span_; ++s) {
      LaneState& l = lanes_[s];
      while (live_mask_[s] ? l.window_at == c : l.resume == c) {
        if (live_mask_[s]) {
          resync(sk, s, c, server);
          continue;
        }
        rngs_[s] = l.saved;
        live_mask_[s] = 1;
        l.resume = kNoColumn;
        ++live_;
      }
      next_event_ = std::min(next_event_, live_mask_[s] ? l.window_at : l.resume);
    }
  }

  // ---- resync windows ----

  /// Runs lane s's window from idle_before(pending_ns), the loop having
  /// drawn its columns before `drawn_to`, and parks the lane to rejoin at
  /// column_at(t1) (the block's end for none), or finishes it.
  void resync(const Skeleton& sk, std::size_t s, std::size_t drawn_to,
              server::ResponseModel& server) {
    unpack(s);
    LaneState& l = lanes_[s];
    const std::int64_t t0 = idle_before(sk, l.pending_ns);
    take_over(sk, s, drawn_to, t0);
    for (std::uint32_t i = 0; i < n_; ++i) {
      if (!cache(i).offloaded) continue;
      const std::uint64_t hits = completed_[at(i, s)] - misses_[at(i, s)];
      double& sum = l.task[i].accrued_benefit;
      sum = fold(i, sum, hits - std::exchange(l.folded[i], hits));
    }
    core_.open(t0, flights_, reuse_, rngs_[s], server, l.task);
    ++stats_.resync_windows;
    const std::int64_t t1 = core_.run(l.pending_ns, stats_.resync_events);
    // What is still in flight: the table counts each timely arrival alone
    // on its nanosecond off the skeleton's pops; any other is the next
    // divergence.
    if (t1 != kNever) {
      core_.in_flight(l.loose);
      l.pending_ns = classify_loose(sk, l.loose);
    }
    core_.close(l.task, rngs_[s]);
    take_window(sk, l, t0, t1);
    live_mask_[s] = 0;
    --live_;
    l.resume = kNoColumn;
    l.window_at = kNoColumn;
    if (t1 == kNever) {
      while (span_ > 0 && !live_mask_[span_ - 1] &&
             lanes_[span_ - 1].resume == kNoColumn) {
        --span_;
      }
      return;
    }
    for (const Flight& f : l.loose) {
      if (!f.counted) continue;
      apply(s, f.task, classify(sk, f), 1);
      loose_until_[s] = std::max(loose_until_[s], f.time_ns);
    }
    // The window replaced every column the ring holds for the lane.
    for (std::size_t r = 0; r < ring_.size(); r += kLanes) ring_[r + s] = kRingNone;
    if (l.pending_ns != kNone) {
      l.window_at = column_at(sk, idle_before(sk, l.pending_ns));
    }
    l.resume = column_at(sk, t1);
    l.saved = rngs_[s];
    next_event_ = std::min(next_event_, l.resume);
  }

  /// Marks each loose arrival (a window closes with no timer due) the
  /// table can count and returns the earliest instant of the others.
  static std::int64_t classify_loose(const Skeleton& sk, std::vector<Flight>& loose) {
    std::int64_t pending = kNone;
    for (Flight& f : loose) {
      const std::size_t q = first_at(sk.pops, &SkelPop::time_ns, f.time_ns);
      f.counted = std::ranges::count(loose, f.time_ns, &Flight::time_ns) == 1 &&
                  (q == sk.pops.size() || sk.pops[q].time_ns != f.time_ns);
      if (!f.counted) pending = std::min(pending, f.time_ns);
    }
    return pending;
  }

  /// Takes lane s's posts arriving from t0 on out of the table counters:
  /// those sent before t0 become flights, the others columns to resend.
  void take_over(const Skeleton& sk, std::size_t s, std::size_t drawn_to,
                 std::int64_t t0) {
    LaneState& l = lanes_[s];
    flights_.clear();
    reuse_.clear();
    for (const Flight& f : l.loose) {
      if (f.time_ns < t0) continue;
      if (f.counted) apply(s, f.task, classify(sk, f), ~std::uint64_t{0});
      flights_.push_back(f);
    }
    l.loose.clear();
    loose_until_[s] = kNever;
    const std::size_t first = drawn_to > ring_rows_ ? drawn_to - ring_rows_ : 0;
    for (std::size_t e = first; e < drawn_to; ++e) {
      const SkelDraw& de = sk.draws[e];
      const std::uint32_t v = ring_[(e & (ring_rows_ - 1)) * kLanes + s];
      if (v == kRingNone) continue;  // a window's
      const bool timer = v == kRingTimer;
      const auto off = static_cast<std::int32_t>(timer ? de.window_ns : v);
      const std::int64_t a = de.send_ns + off;
      if (de.send_ns < t0 && a < t0) continue;  // landed
      const Column& col = columns_[e];
      const std::uint32_t k = interval_of(bounds_.data() + col.bound0, col.bounds, off);
      apply(s, de.task, outcomes_[col.interval0 + k], ~std::uint64_t{0});
      (de.send_ns < t0 ? flights_ : reuse_)
          .push_back(Flight{a, de.send_ns, de.deadline_ns, de.task, 0, timer, true});
    }
  }

  /// Takes the skeleton's share of [t0, t1) (kNever: to the horizon) out
  /// of the lane's deltas, and adds the window's CPU time and switches.
  void take_window(const Skeleton& sk, LaneState& l, std::int64_t t0, std::int64_t t1) {
    const std::int64_t end = t1 == kNever ? kNone : t1;
    for (std::size_t p = first_at(sk.pops, &SkelPop::time_ns, t0);
         p < sk.pops.size() && sk.pops[p].time_ns < end; ++p) {
      const SkelPop& sp = sk.pops[p];
      TaskMetrics& x = l.task[sp.task];
      l.ctx -= (sp.flags & kSwitched) != 0 ? 1 : 0;
      x.offload_attempts -= (sp.flags & kSetupDone) != 0 ? 1 : 0;
      x.deadline_misses -= (sp.flags & kMissed) != 0 ? 1 : 0;
      if ((sp.flags & kLocalDone) != 0) {
        --x.completed;
        x.local_runs -= (sp.flags & kMissed) != 0 ? 0 : 1;
      }
    }
    for (std::size_t g = first_at(sk.segments, &SkelSegment::start_ns, t0);
         g < sk.segments.size() && sk.segments[g].start_ns < end; ++g) {
      l.busy -= sk.segments[g].end_ns - sk.segments[g].start_ns;
    }
    l.ctx += core_.totals().context_switches;
    l.busy += core_.totals().cpu_busy_ns;
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
