// GpuService connection bookkeeping on a test-owned loop, pumped by hand
// with run_once under a FakeClock: every hold ends before the fake clock's
// reading, so every reply is immediate and no timer needs the clock to
// move.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/benefit.hpp"
#include "net/clock.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "runtime/gpu_service.hpp"
#include "server/response_model.hpp"
#include "server/routing.hpp"
#include "sim/benefit_response.hpp"

namespace rt::runtime {
namespace {

/// One length-prefixed request frame, as net::Connection writes it.
std::string request_frame(std::uint64_t id, std::uint32_t task = 0) {
  net::OffloadRequest request;
  request.id = id;
  request.task = task;
  const std::string payload = net::encode(request);
  std::string frame(4, '\0');
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    frame[i] = static_cast<char>((len >> (8 * i)) & 0xFF);
  }
  return frame + payload;
}

std::uint32_t frame_length(const std::string& bytes) {
  std::uint32_t len = 0;
  for (int i = 3; i >= 0; --i) {
    len = (len << 8) | static_cast<unsigned char>(bytes[i]);
  }
  return len;
}

bool frame_complete(const std::string& bytes) {
  return bytes.size() >= 4 && bytes.size() >= 4 + frame_length(bytes);
}

/// Sends `frame` on `fd` and pumps `loop` until a whole reply frame or
/// EOF arrives there. Returns the bytes read; `eof` says whether the
/// service closed the connection.
std::string exchange(net::EventLoop& loop, int fd, const std::string& frame,
                     bool& eof) {
  EXPECT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  std::string got;
  eof = false;
  for (int i = 0; i < 20000 && !eof && !frame_complete(got); ++i) {
    loop.run_once(Duration::zero());
    char buf[256];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) got.append(buf, static_cast<std::size_t>(n));
    if (n == 0) eof = true;
  }
  return got;
}

TEST(GpuServiceTest, ConnectionAcceptedOnAJustClosedFdIsServed) {
  net::FakeClock clock{TimePoint(5'000'000)};
  net::EventLoop loop{net::EventLoopOptions{&clock, nullptr}};
  GpuService service(loop,
                     std::make_unique<server::FixedResponse>(Duration::zero()),
                     /*seed=*/1, net::SocketAddress{});

  const int a = net::tcp_connect(service.address(), Duration::seconds(2));
  for (int i = 0; i < 1000 && service.stats().connections == 0; ++i) {
    loop.run_once(Duration::zero());
  }
  ASSERT_EQ(service.stats().connections, 1u);
  // Idle iterations let epoll drop the listener's level-triggered re-check
  // from its ready list, so the next iteration reports events in arrival
  // order.
  for (int i = 0; i < 3; ++i) loop.run_once(Duration::zero());

  // Close A, then connect B, and let one iteration see both: A's EOF
  // closes its server-side fd, and B's accept reuses that number before
  // A's deferred close handler runs.
  ::close(a);
  const int b = net::tcp_connect(service.address(), Duration::seconds(2));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  loop.run_once(Duration::zero());
  ASSERT_EQ(service.stats().connections, 2u);

  bool eof = false;
  const std::string got = exchange(loop, b, request_frame(77), eof);
  ::close(b);
  ASSERT_FALSE(eof) << "the service closed B's connection";
  ASSERT_TRUE(frame_complete(got)) << "no reply for B";
  const net::OffloadResponse reply = net::decode_response(got.substr(4));
  EXPECT_EQ(reply.id, 77u);
  EXPECT_EQ(service.stats().replies, 1u);
}

// A well-formed frame naming a task the model has no stream for is the
// peer's fault, not the daemon's: the service counts it as a wire error,
// closes that connection and serves the next one. `model` knows tasks 0
// and 1 only; each of its holds is at most 1 ms, so every reply is due
// before the fake clock's 5 ms and is sent at once.
void expect_unknown_task_closes_only_its_connection(
    std::unique_ptr<server::ResponseModel> model) {
  net::FakeClock clock{TimePoint(5'000'000)};
  net::EventLoop loop{net::EventLoopOptions{&clock, nullptr}};
  GpuService service(loop, std::move(model), /*seed=*/1, net::SocketAddress{});

  const int a = net::tcp_connect(service.address(), Duration::seconds(2));
  bool eof = false;
  std::string got;
  EXPECT_NO_THROW(got = exchange(loop, a, request_frame(1, /*task=*/7), eof));
  ::close(a);
  EXPECT_TRUE(eof) << "the service kept the connection open";
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(service.stats().wire_errors, 1u);
  EXPECT_EQ(service.stats().requests, 0u);

  const int b = net::tcp_connect(service.address(), Duration::seconds(2));
  EXPECT_NO_THROW(got = exchange(loop, b, request_frame(2, /*task=*/1), eof));
  ::close(b);
  ASSERT_FALSE(eof) << "the service closed the second connection";
  ASSERT_TRUE(frame_complete(got)) << "no reply on the second connection";
  EXPECT_EQ(net::decode_response(got.substr(4)).id, 2u);
  EXPECT_EQ(service.stats().connections, 2u);
  EXPECT_EQ(service.stats().replies, 1u);
}

TEST(GpuServiceTest, RequestForAnUnknownTaskClosesOnlyItsConnection) {
  const core::BenefitFunction curve(
      {{Duration::zero(), 0.0}, {Duration::milliseconds(1), 1.0}});
  expect_unknown_task_closes_only_its_connection(
      std::make_unique<sim::BenefitDrivenResponse>(
          std::vector<core::BenefitFunction>{curve, curve}));
}

// A routing stack's tasks are the streams of its route_of_stream: a task
// past the mapping is unknown, not the last route's.
TEST(GpuServiceTest, RoutingStackRejectsAnUnknownTask) {
  std::vector<std::unique_ptr<server::ResponseModel>> routes;
  routes.push_back(std::make_unique<server::FixedResponse>(Duration::zero()));
  routes.push_back(
      std::make_unique<server::FixedResponse>(Duration::milliseconds(1)));
  expect_unknown_task_closes_only_its_connection(
      std::make_unique<server::RoutingResponse>(std::move(routes),
                                                std::vector<std::size_t>{0, 1}));
}

}  // namespace
}  // namespace rt::runtime
