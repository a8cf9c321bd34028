// Runtime-tier microbenchmarks (docs/RUNTIME.md):
//   * RPC round-trips against an in-process LoopbackGpuServer serving
//     FixedResponse(0) at time_scale 1 -- sequential ping-pong (latency)
//     and pipelined at depth 32 (throughput);
//   * event-loop dispatch latency: the gap between a timer's deadline
//     and its callback running on a real-clock loop, exact p50/p99 from
//     the raw sample vector.
// Argument-free like every harness here; writes BENCH_runtime.json. Exits 1,
// naming the RPC phase, if the daemon closes a client connection.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "json_summary.hpp"
#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "runtime/gpu_service.hpp"
#include "server/response_model.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace {

using rt::Duration;
using rt::Json;
using rt::TimePoint;

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One client loop + connection to the loopback daemon; counts replies.
struct RpcClient {
  rt::net::EventLoop loop;
  std::unique_ptr<rt::net::Connection> connection;
  std::uint64_t replies = 0;

  explicit RpcClient(const rt::net::SocketAddress& address) {
    const int fd = rt::net::tcp_connect(address, Duration::seconds(5));
    connection = std::make_unique<rt::net::Connection>(loop, fd);
    connection->set_message_handler([this](std::string_view) { ++replies; });
  }

  void send_request(std::uint64_t id) {
    rt::net::OffloadRequest request;
    request.id = id;
    request.task = 0;
    request.level = 1;
    request.send_wall_ns = loop.now().ns();
    connection->send(rt::net::encode(request));
  }

  /// Pumps until `target` replies have arrived. Throws if the daemon
  /// closes the connection first; `phase` names the RPC phase in the error.
  void pump_to(std::uint64_t target, const char* phase) {
    while (replies < target) {
      if (connection->closed()) {
        throw std::runtime_error(std::string(phase) +
                                 ": daemon closed the connection after " +
                                 std::to_string(replies) + " of " +
                                 std::to_string(target) + " replies");
      }
      loop.run_once(Duration::milliseconds(5));
    }
  }
};

Json bench_entry(std::string name, Json::Object config,
                 Json::Object metrics) {
  Json::Object entry;
  entry["name"] = std::move(name);
  entry["config"] = Json(std::move(config));
  entry["metrics"] = Json(std::move(metrics));
  return Json(std::move(entry));
}

Json rpc_sequential(const rt::net::SocketAddress& address, int rounds) {
  RpcClient client(address);
  std::vector<double> rtt_us;
  rtt_us.reserve(static_cast<std::size_t>(rounds));
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < rounds; ++i) {
    const auto sent = std::chrono::steady_clock::now();
    client.send_request(static_cast<std::uint64_t>(i) + 1);
    client.pump_to(static_cast<std::uint64_t>(i) + 1, "rpc sequential");
    rtt_us.push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - sent)
            .count());
  }
  const double elapsed = wall_seconds_since(start);
  Json::Object config;
  config["rounds"] = static_cast<std::int64_t>(rounds);
  config["depth"] = static_cast<std::int64_t>(1);
  Json::Object metrics;
  metrics["wall_ms"] = elapsed * 1e3;
  metrics["round_trips_per_sec"] = static_cast<double>(rounds) / elapsed;
  metrics["rtt_us_p50"] = rt::percentile(rtt_us, 50.0);
  metrics["rtt_us_p99"] = rt::percentile(rtt_us, 99.0);
  std::printf("rpc sequential: %d rounds, %.0f rt/s, p50 %.1f us, p99 %.1f us\n",
              rounds, static_cast<double>(rounds) / elapsed,
              rt::percentile(rtt_us, 50.0), rt::percentile(rtt_us, 99.0));
  return bench_entry("rpc_round_trip_sequential", std::move(config),
                     std::move(metrics));
}

Json rpc_pipelined(const rt::net::SocketAddress& address, int total,
                   int depth) {
  RpcClient client(address);
  std::uint64_t next_id = 1;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < depth; ++i) client.send_request(next_id++);
  while (client.replies + static_cast<std::uint64_t>(depth) <
         static_cast<std::uint64_t>(total)) {
    const std::uint64_t before = client.replies;
    client.pump_to(before + 1, "rpc pipelined");
    // Keep the window full: one new request per drained reply.
    const std::uint64_t drained = client.replies - before;
    for (std::uint64_t i = 0; i < drained; ++i) client.send_request(next_id++);
  }
  client.pump_to(static_cast<std::uint64_t>(total), "rpc pipelined drain");
  const double elapsed = wall_seconds_since(start);
  Json::Object config;
  config["rounds"] = static_cast<std::int64_t>(total);
  config["depth"] = static_cast<std::int64_t>(depth);
  Json::Object metrics;
  metrics["wall_ms"] = elapsed * 1e3;
  metrics["round_trips_per_sec"] = static_cast<double>(total) / elapsed;
  std::printf("rpc pipelined(depth %d): %d rounds, %.0f rt/s\n", depth, total,
              static_cast<double>(total) / elapsed);
  return bench_entry("rpc_round_trip_pipelined", std::move(config),
                     std::move(metrics));
}

Json loop_dispatch_latency(int samples) {
  // Real-clock loop; each timer records (fire_time - deadline). Timers
  // are spaced 2 ms apart so each run_once sleeps in epoll and the
  // wakeup path (timerfd -> wheel -> callback) is what gets measured.
  rt::net::EventLoop loop;
  std::vector<double> late_us;
  late_us.reserve(static_cast<std::size_t>(samples));
  const Duration spacing = Duration::milliseconds(2);
  TimePoint deadline = loop.now() + spacing;
  std::function<void()> arm = [&] {
    const TimePoint now = loop.now();
    // First fire has no recorded deadline yet; guarded by vector size.
    loop.add_timer(deadline, [&, expected = deadline] {
      late_us.push_back(
          static_cast<double>((loop.now() - expected).ns()) / 1e3);
      if (late_us.size() < static_cast<std::size_t>(samples)) {
        deadline = deadline + spacing;
        arm();
      } else {
        loop.stop();
      }
    });
    (void)now;
  };
  arm();
  loop.run();
  loop.clear_stop();
  Json::Object config;
  config["samples"] = static_cast<std::int64_t>(samples);
  config["spacing_us"] = static_cast<std::int64_t>(spacing.ns() / 1000);
  Json::Object metrics;
  metrics["dispatch_us_p50"] = rt::percentile(late_us, 50.0);
  metrics["dispatch_us_p99"] = rt::percentile(late_us, 99.0);
  metrics["dispatch_us_max"] = *std::max_element(late_us.begin(),
                                                 late_us.end());
  std::printf("loop dispatch: %d timers, p50 %.1f us, p99 %.1f us, max %.1f us\n",
              samples, rt::percentile(late_us, 50.0),
              rt::percentile(late_us, 99.0),
              *std::max_element(late_us.begin(), late_us.end()));
  return bench_entry("loop_dispatch_latency", std::move(config),
                     std::move(metrics));
}

}  // namespace

int main() {
  // Zero service time at scale 1: every reply is sent the moment the
  // request decodes, so the measured rate is pure transport + loop cost.
  rt::runtime::LoopbackGpuServer server(
      std::make_unique<rt::server::FixedResponse>(Duration::zero()),
      /*seed=*/1);

  Json::Array benchmarks;
  try {
    benchmarks.push_back(rpc_sequential(server.address(), 2000));
    benchmarks.push_back(rpc_pipelined(server.address(), 20000, 32));
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "bench_runtime: %s\n", e.what());
    server.stop();
    return 1;
  }
  benchmarks.push_back(loop_dispatch_latency(500));
  server.stop();

  rtbench::write_json_summary("BENCH_runtime.json", std::move(benchmarks));
  return 0;
}
