// Zero-allocation event engine (see engine.hpp for the design contract):
// the discrete-event driver of the shared protocol core.
//
// Bit-identical parity with reference_engine.cpp is load-bearing: the
// core's handlers (protocol_core.hpp) draw RNG values, push events, and
// record trace/metric updates in exactly the seed engine's order, and the
// driver below only decides where events come from. The only degrees of
// freedom taken are representational (d-ary heaps instead of
// std::priority_queue, a generation-tagged slot map instead of
// std::unordered_map with a deferred erase).

#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "obs/sink.hpp"
#include "obs/timer.hpp"
#include "sim/protocol_core.hpp"
#include "util/dary_heap.hpp"

namespace rt::sim {

namespace {

enum class EventKind { kRelease, kSliceEnd, kOffloadArrival, kTimer };

struct Event {
  TimePoint time;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::kRelease;
  std::uint64_t arg = 0;  // task index, slice generation, or offload token

  friend bool operator<(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
};

/// In-flight offload slot; the token is (generation << 32) | slot index,
/// so a freed slot invalidates every outstanding token for it in O(1).
struct FlightSlot {
  Offload job;
  std::uint32_t generation = 0;
};

}  // namespace

struct SimEngine::Impl : ProtocolCore<SimEngine::Impl> {
  static constexpr const char* kName = "simulate";
  static constexpr const char* kMetricPrefix = "sim";

  // ---- persistent buffers (survive across run() calls) ----
  std::vector<Event> events_;         // 4-ary min-heap keyed on (time, seq)
  std::vector<FlightSlot> flights_;
  std::vector<std::uint32_t> flight_free_;
  EngineStats stats_;

  // ---- per-run state ----
  server::ResponseModel* server_ = nullptr;
  std::uint64_t slice_generation_ = 0;
  std::uint64_t event_seq_ = 0;
  std::size_t flights_live_ = 0;
  /// Heap entries already known dead: superseded slice-ends plus timers
  /// whose token was resolved by an arrival. Drives compaction.
  std::size_t stale_events_ = 0;

  // Telemetry handles; null when config_.sink is null.
  obs::Counter* events_counter_ = nullptr;
  obs::LogHistogram* run_hist_ = nullptr;

  // ---- event queue: 4-ary min-heap on (time, seq) ----

  void push_event(TimePoint time, EventKind kind, std::uint64_t arg) {
    if (stale_events_ > 64 && stale_events_ * 2 > events_.size()) {
      compact_events();
    }
    heap_push(events_, Event{time, event_seq_++, kind, arg});
    stats_.event_heap_peak = std::max(stats_.event_heap_peak, events_.size());
  }

  /// Is this heap entry already known to be a no-op when popped?
  bool event_is_stale(const Event& ev) const {
    switch (ev.kind) {
      case EventKind::kSliceEnd:
        return ev.arg != slice_generation_;
      case EventKind::kTimer:
        return flight_find(ev.arg) == nullptr;
      default:
        return false;
    }
  }

  /// Removes every stale entry and re-heapifies (Floyd, O(n)). Popping
  /// order of live events is unchanged: (time, seq) is a total order.
  void compact_events() {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (!event_is_stale(events_[i])) events_[kept++] = events_[i];
    }
    stats_.stale_events_compacted += events_.size() - kept;
    events_.resize(kept);
    stale_events_ = 0;
    heap_make(events_);
  }

  // ---- in-flight token slot map ----

  std::uint64_t flight_alloc(const Offload& job) {
    std::uint32_t slot;
    if (!flight_free_.empty()) {
      slot = flight_free_.back();
      flight_free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(flights_.size());
      flights_.emplace_back();
    }
    FlightSlot& fl = flights_[slot];
    fl.job = job;
    ++flights_live_;
    stats_.in_flight_peak = std::max(stats_.in_flight_peak, flights_live_);
    return (static_cast<std::uint64_t>(fl.generation) << 32) | slot;
  }

  [[nodiscard]] const FlightSlot* flight_find(std::uint64_t token) const {
    const std::uint32_t slot = static_cast<std::uint32_t>(token);
    if (slot >= flights_.size()) return nullptr;
    const FlightSlot& fl = flights_[slot];
    if (fl.generation != static_cast<std::uint32_t>(token >> 32)) return nullptr;
    return &fl;
  }

  void flight_release(std::uint64_t token) {
    const std::uint32_t slot = static_cast<std::uint32_t>(token);
    ++flights_[slot].generation;  // invalidates the token eagerly
    flight_free_.push_back(slot);
    --flights_live_;
  }

  // ---- run setup / teardown ----

  void reset(const core::TaskSet& tasks, const core::DecisionVector& decisions,
             server::ResponseModel& server, const SimConfig& config,
             const RequestProfile& profile) {
    server_ = &server;
    stats_ = EngineStats{};
    events_.clear();
    flights_.clear();
    flight_free_.clear();
    slice_generation_ = 0;
    event_seq_ = 0;
    flights_live_ = 0;
    stale_events_ = 0;
    events_counter_ = nullptr;
    run_hist_ = nullptr;
    ProtocolCore::reset(tasks, decisions, config, profile);
    if (config_.sink != nullptr) {
      auto& reg = config_.sink->registry();
      events_counter_ = &reg.counter("sim.events");
      run_hist_ = &reg.histogram("sim.run_ns");
    }
  }

  SimResult run() {
    obs::ScopedTimer run_timer(run_hist_);
    for (std::size_t i = 0; i < tasks_->size(); ++i) {
      push_event(TimePoint::zero(), EventKind::kRelease, i);
    }
    while (!events_.empty()) {
      const Event ev = events_[0];
      // Half-open horizon [0, H): events at exactly H belong to the next
      // window and are dropped.
      if (ev.time >= horizon_end_) break;
      heap_pop(events_);
      ++stats_.events_processed;
      obs::inc(events_counter_);
      advance_to(ev.time);
      handle(ev);
      dispatch();
    }
    finish();
    stats_.pool_slots_peak = pool_slots_peak_;
    stats_.pool_slots_capacity = pool_.size();
    stats_.jobs_released = job_counter_;
    if (config_.sink != nullptr) {
      auto& reg = config_.sink->registry();
      reg.histogram("sim.pool_slots_peak")
          .add(static_cast<std::int64_t>(stats_.pool_slots_peak));
      reg.histogram("sim.in_flight_peak")
          .add(static_cast<std::int64_t>(stats_.in_flight_peak));
      reg.counter("sim.stale_events_compacted")
          .inc(stats_.stale_events_compacted);
      if (config_.controller != nullptr) {
        reg.counter("sim.mode_changes").inc(metrics_.mode_changes);
        reg.counter("sim.time_in_degraded_ns")
            .inc(static_cast<std::uint64_t>(metrics_.time_in_degraded_ns));
      }
    }
    SimResult result;
    result.metrics = std::move(metrics_);
    result.trace = std::move(trace_);
    return result;
  }

  // ---- the driver hooks of ProtocolCore ----

  void arm_slice(TimePoint end) {
    push_event(end, EventKind::kSliceEnd, slice_generation_);
  }

  void cancel_slice() {
    ++stale_events_;       // the armed event can never match again
    ++slice_generation_;   // ... because its generation is now stale
  }

  void send_offload(const Offload& job, const detail::TaskCache& tc) {
    const std::uint64_t token = flight_alloc(job);
    server::Request req = tc.req;
    req.send_time = now_;
    const Duration response = server_->sample(req, rng_);
    auto& tm = metrics_.per_task[job.task];
    if (response != server::kNoResponse) {
      tm.observed_response_ms.add(response.ms());
      if (response <= tc.response_time) {
        push_event(now_ + response, EventKind::kOffloadArrival, token);
        // The timer would always pop after this arrival (response <= R,
        // and ties break on seq) and find its token already released --
        // a guaranteed no-op, so it is never queued. The seed engine
        // queued it and skipped it via the resolved flag; eliding it
        // drops ~a fifth of all heap traffic with no observable change.
        return;
      }
      ++tm.late_results;
    }
    push_event(now_ + tc.response_time, EventKind::kTimer, token);
  }

  // ---- the event handlers ----

  void handle(const Event& ev) {
    switch (ev.kind) {
      case EventKind::kRelease: {
        const std::size_t task = static_cast<std::size_t>(ev.arg);
        push_event(release(task, now_), EventKind::kRelease, task);
        return;
      }
      case EventKind::kSliceEnd:
        if (ev.arg != slice_generation_) {  // superseded by a dispatch
          --stale_events_;
          return;
        }
        if (!slice_end()) {
          throw std::logic_error("simulate: live slice-end without a finished job");
        }
        return;
      case EventKind::kOffloadArrival:
        return resolve_flight(ev.arg, /*timely=*/true);
      case EventKind::kTimer:
        return resolve_flight(ev.arg, /*timely=*/false);
    }
  }

  void resolve_flight(std::uint64_t token, bool timely) {
    const FlightSlot* fl = flight_find(token);
    if (fl == nullptr) {
      // Unreachable by construction (arrivals resolve once, and timers are
      // only queued when no timely arrival exists), kept as a cheap guard
      // against future edits.
      if (!timely) --stale_events_;
      return;
    }
    // A timer pops at exactly send + R, so the wait is R for a timer.
    resolve(fl->job, timely, now_ - fl->job.send);
    flight_release(token);
  }
};

SimEngine::SimEngine() : impl_(std::make_unique<Impl>()) {}
SimEngine::~SimEngine() = default;
SimEngine::SimEngine(SimEngine&&) noexcept = default;
SimEngine& SimEngine::operator=(SimEngine&&) noexcept = default;

SimResult SimEngine::run(const core::TaskSet& tasks,
                         const core::DecisionVector& decisions,
                         server::ResponseModel& server, const SimConfig& config,
                         const RequestProfile& profile) {
  impl_->reset(tasks, decisions, server, config, profile);
  return impl_->run();
}

const EngineStats& SimEngine::stats() const { return impl_->stats_; }

}  // namespace rt::sim
