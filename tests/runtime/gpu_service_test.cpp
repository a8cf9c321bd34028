// GpuService connection bookkeeping on a test-owned loop, pumped by hand
// with run_once under a FakeClock: a zero-hold response model makes every
// reply immediate, so no timer ever needs the clock to move.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "net/clock.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "runtime/gpu_service.hpp"
#include "server/response_model.hpp"

namespace rt::runtime {
namespace {

/// One length-prefixed request frame, as net::Connection writes it.
std::string request_frame(std::uint64_t id) {
  net::OffloadRequest request;
  request.id = id;
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

TEST(GpuServiceTest, ConnectionAcceptedOnAJustClosedFdIsServed) {
  net::FakeClock clock{TimePoint(5'000'000)};
  net::EventLoop loop{net::EventLoopOptions{&clock, Duration::microseconds(100),
                                            nullptr}};
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

  const std::string frame = request_frame(77);
  ASSERT_EQ(::send(b, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  std::string got;
  bool eof = false;
  for (int i = 0; i < 20000 && !eof && !frame_complete(got); ++i) {
    loop.run_once(Duration::zero());
    char buf[256];
    const ssize_t n = ::recv(b, buf, sizeof(buf), 0);
    if (n > 0) got.append(buf, static_cast<std::size_t>(n));
    if (n == 0) eof = true;
  }
  ::close(b);
  ASSERT_FALSE(eof) << "the service closed B's connection";
  ASSERT_TRUE(frame_complete(got)) << "no reply for B";
  const net::OffloadResponse reply = net::decode_response(got.substr(4));
  EXPECT_EQ(reply.id, 77u);
  EXPECT_EQ(service.stats().replies, 1u);
}

}  // namespace
}  // namespace rt::runtime
