// Zero-allocation event engine (see engine.hpp for the design contract):
// the discrete-event driver of the shared protocol core.
//
// Bit-identical parity with tests/support/reference_engine.cpp is
// load-bearing: the core's handlers (protocol_core.hpp) draw RNG values,
// push events, and record trace/metric updates in exactly the seed
// engine's order, and the driver below only decides where events come
// from. The only degrees of freedom taken are representational (d-ary
// heaps instead of std::priority_queue, a generation-tagged slot map
// instead of std::unordered_map with a deferred erase, and the one armed
// slice end in a register beside the event heap instead of inside it).

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

enum class EventKind { kRelease, kOffloadArrival, kTimer };

struct Event {
  TimePoint time;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::kRelease;
  std::uint64_t arg = 0;  // task index or offload token

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
  std::uint64_t event_seq_ = 0;
  std::size_t flights_live_ = 0;
  /// The armed slice end, ordered against the heap on (time, seq). The core
  /// arms at most one at a time, so it never enters the heap; TimePoint::max()
  /// when disarmed, which the horizon check treats as "no event".
  TimePoint slice_time_ = TimePoint::max();
  std::uint64_t slice_seq_ = 0;

  // Telemetry handles; null when config_.sink is null.
  obs::Counter* events_counter_ = nullptr;
  obs::LogHistogram* run_hist_ = nullptr;

  // ---- event queue: 4-ary min-heap on (time, seq) ----

  void push_event(TimePoint time, EventKind kind, std::uint64_t arg) {
    heap_push(events_, Event{time, event_seq_++, kind, arg});
    stats_.event_heap_peak = std::max(stats_.event_heap_peak, events_.size());
  }

  /// Does the armed slice end pop before the heap top? Disarmed, it is at
  /// TimePoint::max() and only "wins" an empty heap, past the horizon.
  [[nodiscard]] bool slice_is_next() const {
    if (events_.empty()) return true;
    const Event& top = events_[0];
    return slice_time_ < top.time ||
           (slice_time_ == top.time && slice_seq_ < top.seq);
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
    event_seq_ = 0;
    flights_live_ = 0;
    slice_time_ = TimePoint::max();
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
    for (;;) {
      const bool slice = slice_is_next();
      // Half-open horizon [0, H): events at exactly H belong to the next
      // window and are dropped.
      if ((slice ? slice_time_ : events_[0].time) >= horizon_end_) break;
      ++stats_.events_processed;
      obs::inc(events_counter_);
      if (slice) {
        const TimePoint end = slice_time_;
        slice_time_ = TimePoint::max();
        advance_to(end);
        if (!slice_end()) {
          throw std::logic_error("simulate: live slice-end without a finished job");
        }
      } else {
        const Event ev = events_[0];
        heap_pop(events_);
        advance_to(ev.time);
        handle(ev);
      }
      dispatch();
    }
    // The running sub-job holds the CPU up to the horizon.
    advance_to(horizon_end_);
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

  // The seq comes from the heap's counter, so same-instant ties pop in
  // the order they would if the slice end were a heap entry.
  void arm_slice(TimePoint end) {
    slice_time_ = end;
    slice_seq_ = event_seq_++;
  }

  void cancel_slice() { slice_time_ = TimePoint::max(); }

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
