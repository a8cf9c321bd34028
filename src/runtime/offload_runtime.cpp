// The real-time driver of the shared protocol core (sim/protocol_core.hpp):
// the simulator's event heap is replaced by an epoll loop, slice ends and
// compensation windows by event-loop timers, and the in-process
// ResponseModel by a wire round-trip to gpu_serverd.

#include "runtime/offload_runtime.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/wire.hpp"
#include "obs/sink.hpp"
#include "sim/protocol_core.hpp"

namespace rt::runtime {

namespace {

using sim::Offload;
using sim::TraceKind;

struct InFlight {
  Offload job;
  Duration window;      // R; what the controller sees on compensation
  TimePoint send_wall;  // CLOCK_MONOTONIC send instant
  net::TimerId timer = net::kInvalidTimer;
  bool resolved = false;
};

class Runtime : public sim::ProtocolCore<Runtime> {
 public:
  static constexpr const char* kName = "runtime";

  Runtime(const core::TaskSet& tasks, const core::DecisionVector& decisions,
          const sim::SimConfig& config, const sim::RequestProfile& profile,
          const RuntimeOptions& options)
      : options_(options),
        sink_(config.sink),
        loop_(net::EventLoopOptions{nullptr, sink_}) {
    if (!(options_.time_scale > 0.0)) {
      throw std::invalid_argument("runtime: time_scale must be > 0");
    }
    sim::SimConfig core_config = config;
    if (options.trace_capacity != 0) {
      core_config.trace_capacity = options.trace_capacity;
    }
    reset(tasks, decisions, core_config, profile);
    next_release_p_.assign(tasks.size(), TimePoint::zero());

    if (sink_ != nullptr) {
      auto& reg = sink_->registry();
      rpc_latency_ns_ = &reg.histogram("runtime.rpc.latency_ns");
      rpc_sent_counter_ = &reg.counter("runtime.rpc.sent");
      rpc_replies_counter_ = &reg.counter("runtime.rpc.replies");
      rpc_late_counter_ = &reg.counter("runtime.rpc.late");
    }
  }

  RuntimeResult run() {
    connect();

    // Epoch with a small grace so the first releases (protocol time 0)
    // land in the loop's future, not its past.
    epoch_ = loop_.now() + Duration::milliseconds(20);
    for (std::size_t i = 0; i < tasks_->size(); ++i) {
      schedule_release(i);
    }
    loop_.add_timer(wall_at(horizon_end_), [this]() { on_horizon(); });

    loop_.run();

    finish();
    sim::add_run_counters(sink_, "runtime", metrics_);
    result_.metrics = std::move(metrics_);
    result_.trace = std::move(trace_);
    return std::move(result_);
  }

  // ---- the driver hooks of ProtocolCore ------------------------------

  void arm_slice(TimePoint end) {
    slice_timer_ = loop_.add_timer(wall_at(end), [this]() {
      on_event([this]() {
        slice_timer_ = net::kInvalidTimer;
        // Returns false when wall->protocol scaling left a residue of
        // work; the dispatch() after this body then re-points the timer.
        slice_end();
      });
    });
  }

  void cancel_slice() {
    loop_.cancel_timer(slice_timer_);
    slice_timer_ = net::kInvalidTimer;
  }

  void send_offload(const Offload& job, const sim::detail::TaskCache& tc) {
    const std::uint64_t token = ++token_counter_;
    InFlight fl;
    fl.job = job;
    fl.window = tc.response_time;
    fl.send_wall = loop_.now();

    net::OffloadRequest wire;
    wire.id = token;
    wire.task = job.task;
    wire.level = static_cast<std::uint32_t>(tc.level);
    wire.send_protocol_ns = job.send.ns();
    wire.send_wall_ns = fl.send_wall.ns();
    wire.compute_ns = tc.req.compute_time.ns();
    wire.payload_bytes = tc.req.payload_bytes;
    // Pad the frame to the modeled uplink size (clamped to the frame
    // limit), so the request's payload hits the wire.
    if (options_.max_frame_bytes > 64) {
      wire.pad_bytes = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          tc.req.payload_bytes, options_.max_frame_bytes - 64));
    }

    ++result_.rpc_sent;
    obs::inc(rpc_sent_counter_);
    if (conn_ == nullptr || conn_->closed() ||
        !conn_->send(net::encode(wire))) {
      ++result_.send_failures;  // the compensation timer still saves the job
    }

    fl.timer = loop_.add_timer(
        wall_at(job.send + tc.response_time), [this, token]() {
          on_event([this, token]() { on_comp_timer(token); });
        });
    in_flight_.emplace(token, fl);
  }

 private:
  // ---- time dilation -------------------------------------------------

  [[nodiscard]] TimePoint wall_at(TimePoint protocol) const {
    return epoch_ + Duration(protocol.ns()).scaled(options_.time_scale);
  }
  [[nodiscard]] TimePoint protocol_now() const {
    return TimePoint::zero() +
           (loop_.now() - epoch_).scaled(1.0 / options_.time_scale);
  }

  // ---- transport -----------------------------------------------------

  void connect() {
    const int fd = net::tcp_connect(options_.server, options_.connect_timeout);
    net::WireOptions wire;
    wire.max_frame_bytes = options_.max_frame_bytes;
    conn_ = std::make_unique<net::Connection>(loop_, fd, wire, sink_);
    conn_->set_message_handler([this](std::string_view payload) {
      on_event([this, payload]() { on_response(payload); });
    });
    conn_->set_close_handler([this](const std::string& reason) {
      if (!stopping_ && result_.connection_error.empty()) {
        result_.connection_error = reason;
      }
    });
  }

  // ---- event plumbing ------------------------------------------------

  /// Every loop-driven callback funnels through here: advance measured
  /// protocol time monotonically (clamped to the horizon), run the body,
  /// re-evaluate dispatch -- the simulator's event-pop prologue/epilogue.
  template <typename Body>
  void on_event(Body body) {
    if (stopping_) return;
    TimePoint p = protocol_now();
    if (p > horizon_end_) p = horizon_end_;
    if (p < now_) p = now_;
    advance_to(p);
    body();
    dispatch();
  }

  void on_horizon() {
    if (stopping_) return;
    advance_to(horizon_end_);
    stopping_ = true;
    loop_.stop();
  }

  /// Releases are anchored at their intended protocol instants (k*T plus
  /// the sporadic draw), so released-job counts match the simulator.
  void schedule_release(std::size_t task_idx) {
    if (next_release_p_[task_idx] >= horizon_end_) return;
    loop_.add_timer(wall_at(next_release_p_[task_idx]), [this, task_idx]() {
      on_event([this, task_idx]() {
        next_release_p_[task_idx] =
            release(task_idx, next_release_p_[task_idx]);
        schedule_release(task_idx);
      });
    });
  }

  void on_response(std::string_view payload) {
    net::OffloadResponse response;
    try {
      response = net::decode_response(payload);
    } catch (const net::WireError&) {
      ++result_.wire_errors;
      return;
    }
    ++result_.rpc_replies;
    obs::inc(rpc_replies_counter_);
    auto it = in_flight_.find(response.id);
    if (it == in_flight_.end()) return;  // stray (e.g. post-horizon) reply
    InFlight& fl = it->second;

    const Duration wall_latency = loop_.now() - fl.send_wall;
    obs::observe(rpc_latency_ns_, wall_latency.ns());
    const Duration latency = wall_latency.scaled(1.0 / options_.time_scale);
    auto& tm = metrics_.per_task[fl.job.task];
    tm.observed_response_ms.add(latency);

    if (fl.resolved) {
      // The compensation timer already won the race.
      ++tm.late_results;
      ++result_.rpc_late_replies;
      obs::inc(rpc_late_counter_);
      trace_.record(now_, TraceKind::kResultLate, fl.job.task, fl.job.job_id);
      in_flight_.erase(it);
      return;
    }
    loop_.cancel_timer(fl.timer);  // "cancel on timely reply"
    resolve(fl.job, /*timely=*/true, latency);
    in_flight_.erase(it);
  }

  void on_comp_timer(std::uint64_t token) {
    auto it = in_flight_.find(token);
    if (it == in_flight_.end() || it->second.resolved) return;
    InFlight& fl = it->second;
    fl.resolved = true;
    fl.timer = net::kInvalidTimer;
    resolve(fl.job, /*timely=*/false, fl.window);
    // Entry survives (resolved) so a straggler reply classifies as late.
  }

  // ---- state ---------------------------------------------------------

  RuntimeOptions options_;
  obs::Sink* sink_;
  net::EventLoop loop_;

  std::unique_ptr<net::Connection> conn_;
  /// Transport counters, filled as the run goes; metrics and trace join
  /// them at the end.
  RuntimeResult result_;

  TimePoint epoch_;
  bool stopping_ = false;

  std::vector<TimePoint> next_release_p_;  // intended k*T release cursor
  net::TimerId slice_timer_ = net::kInvalidTimer;
  std::uint64_t token_counter_ = 0;
  std::unordered_map<std::uint64_t, InFlight> in_flight_;

  obs::LogHistogram* rpc_latency_ns_ = nullptr;
  obs::Counter* rpc_sent_counter_ = nullptr;
  obs::Counter* rpc_replies_counter_ = nullptr;
  obs::Counter* rpc_late_counter_ = nullptr;
};

}  // namespace

Json RuntimeResult::rpc_json() const {
  Json::Object out;
  out["sent"] = Json(static_cast<std::int64_t>(rpc_sent));
  out["replies"] = Json(static_cast<std::int64_t>(rpc_replies));
  out["late_replies"] = Json(static_cast<std::int64_t>(rpc_late_replies));
  out["send_failures"] = Json(static_cast<std::int64_t>(send_failures));
  out["wire_errors"] = Json(static_cast<std::int64_t>(wire_errors));
  out["connection_error"] = Json(connection_error);
  return Json(std::move(out));
}

RuntimeResult run_offload_runtime(const core::TaskSet& tasks,
                                  const core::DecisionVector& decisions,
                                  const sim::SimConfig& config,
                                  const sim::RequestProfile& profile,
                                  const RuntimeOptions& options) {
  Runtime runtime(tasks, decisions, config, profile, options);
  return runtime.run();
}

}  // namespace rt::runtime
