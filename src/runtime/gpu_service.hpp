#pragma once
// Loopback "GPU server": accepts offload RPCs and replies after a hold
// drawn from the same ResponseModel/FaultInjector stack the simulator
// samples, so the real transport exhibits exactly the modeled timing
// unreliability (including never-responding requests, which simply get
// no reply and leave the client's compensation timer to fire).
//
// Reply anchoring: the hold is scheduled at
//     reply_wall = request.send_wall_ns + scale(X)
// where X is the sampled service time and send_wall_ns is the client's
// CLOCK_MONOTONIC stamp. On loopback both processes share that clock, so
// uplink queueing jitter drops out of the measured response time -- the
// client observes scale(X) plus only the downlink + dispatch jitter.
//
// Ordering: stateful models (gpu-server queueing) require non-decreasing
// Request::send_time. Frames from one connection arrive FIFO and carry
// the client's protocol send stamps, so a single client preserves the
// order; with several concurrent clients interleaving is possible and
// only stateless stacks should be served.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "runtime/runtime_options.hpp"
#include "server/response_model.hpp"
#include "util/rng.hpp"

namespace rt::runtime {

struct GpuServiceStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t replies = 0;
  std::uint64_t drops = 0;         ///< sampled kNoResponse: no reply sent
  std::uint64_t wire_errors = 0;   ///< undecodable frames (connection closed)

  [[nodiscard]] Json to_json() const;
};

/// Single-threaded service on a caller-owned EventLoop. Binds in the
/// constructor (so an ephemeral port is known immediately); serves once
/// the loop runs. Destroy the service before or together with the loop.
class GpuService {
 public:
  GpuService(net::EventLoop& loop,
             std::unique_ptr<server::ResponseModel> model, std::uint64_t seed,
             const net::SocketAddress& listen, GpuServiceOptions options = {});

  [[nodiscard]] const net::SocketAddress& address() const {
    return acceptor_.local_address();
  }
  [[nodiscard]] const GpuServiceStats& stats() const { return stats_; }

 private:
  void on_accept(int fd);
  void on_message(const std::shared_ptr<net::Connection>& connection,
                  std::string_view payload);

  net::EventLoop& loop_;
  std::unique_ptr<server::ResponseModel> model_;
  Rng rng_;
  GpuServiceOptions options_;
  net::Acceptor acceptor_;
  /// Keyed by a per-service connection id; the shared_ptr is the only
  /// strong reference, so erasing on close expires the weak_ptrs held by
  /// pending reply timers.
  std::map<std::uint64_t, std::shared_ptr<net::Connection>> connections_;
  std::uint64_t last_connection_id_ = 0;
  GpuServiceStats stats_;

  obs::Counter* requests_counter_ = nullptr;
  obs::Counter* drops_counter_ = nullptr;
  obs::LogHistogram* service_ns_ = nullptr;
};

/// In-process daemon: a GpuService on its own EventLoop thread, for the
/// oracle harness and the unit suites. The constructor returns with the
/// port bound; stop() (or destruction) shuts the loop down and joins.
class LoopbackGpuServer {
 public:
  LoopbackGpuServer(std::unique_ptr<server::ResponseModel> model,
                    std::uint64_t seed, GpuServiceOptions options = {},
                    const net::SocketAddress& listen = net::SocketAddress{});
  ~LoopbackGpuServer();

  LoopbackGpuServer(const LoopbackGpuServer&) = delete;
  LoopbackGpuServer& operator=(const LoopbackGpuServer&) = delete;

  [[nodiscard]] const net::SocketAddress& address() const { return address_; }
  /// Idempotent; returns the final stats after the join.
  GpuServiceStats stop();

 private:
  net::EventLoop loop_;
  std::unique_ptr<GpuService> service_;
  net::SocketAddress address_;
  std::thread thread_;
  bool stopped_ = false;
  GpuServiceStats final_stats_;
};

}  // namespace rt::runtime
