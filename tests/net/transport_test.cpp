// Transport suite: wire codec, length-prefixed framing over real
// loopback sockets, fragmentation/coalescing, oversize-frame protocol
// errors, close-handler delivery, and write backpressure. The loop runs
// under a FakeClock, so every run_once() polls and returns immediately:
// the suite busy-pumps bounded iteration counts and never sleeps.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "net/clock.hpp"
#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "util/time.hpp"

namespace rt::net {
namespace {

TEST(WireCodecTest, RequestRoundTrip) {
  OffloadRequest request;
  request.id = 42;
  request.task = 3;
  request.level = 2;
  request.send_protocol_ns = 1'234'567'890;
  request.send_wall_ns = 987'654'321;
  request.compute_ns = 5'000'000;
  request.payload_bytes = 1 << 20;
  request.pad_bytes = 128;

  const std::string bytes = encode(request);
  const OffloadRequest back = decode_request(bytes);
  EXPECT_EQ(back.id, request.id);
  EXPECT_EQ(back.task, request.task);
  EXPECT_EQ(back.level, request.level);
  EXPECT_EQ(back.send_protocol_ns, request.send_protocol_ns);
  EXPECT_EQ(back.send_wall_ns, request.send_wall_ns);
  EXPECT_EQ(back.compute_ns, request.compute_ns);
  EXPECT_EQ(back.payload_bytes, request.payload_bytes);
  EXPECT_EQ(back.pad_bytes, request.pad_bytes);
}

TEST(WireCodecTest, ResponseRoundTrip) {
  OffloadResponse response;
  response.id = 7;
  response.service_protocol_ns = 20'000'000;
  const std::string bytes = encode(response);
  const OffloadResponse back = decode_response(bytes);
  EXPECT_EQ(back.id, response.id);
  EXPECT_EQ(back.service_protocol_ns, response.service_protocol_ns);
}

TEST(WireCodecTest, MalformedPayloadsThrow) {
  EXPECT_THROW(decode_request(""), WireError);
  const std::string req = encode(OffloadRequest{});
  const std::string resp = encode(OffloadResponse{});
  // Truncation, trailing garbage, and kind mismatch.
  EXPECT_THROW(decode_request(std::string_view(req).substr(0, req.size() - 1)),
               WireError);
  EXPECT_THROW(decode_response(resp + "x"), WireError);
  EXPECT_THROW(decode_request(resp), WireError);
  EXPECT_THROW(decode_response(req), WireError);
}

/// One loop + acceptor + connected client/server Connection pair on
/// loopback, all pumped by hand under a FakeClock.
struct TransportFixture : ::testing::Test {
  FakeClock clock{TimePoint(5'000'000)};
  EventLoop loop{EventLoopOptions{&clock, nullptr}};
  std::unique_ptr<Acceptor> acceptor;
  std::unique_ptr<Connection> server;  // accept side
  std::unique_ptr<Connection> client;  // connect side
  int raw_client_fd = -1;              // when the test frames by hand

  void SetUp() override {
    acceptor = std::make_unique<Acceptor>(
        loop, SocketAddress{"127.0.0.1", 0});
  }

  void TearDown() override {
    client.reset();
    server.reset();
    acceptor.reset();
    if (raw_client_fd >= 0) ::close(raw_client_fd);
  }

  // Busy-pump run_once until pred() or the iteration cap; returns
  // whether the predicate became true. No sleeps anywhere.
  template <typename Pred>
  bool pump_until(Pred pred, int iterations = 20000) {
    for (int i = 0; i < iterations; ++i) {
      if (pred()) return true;
      loop.run_once(Duration::zero());
    }
    return pred();
  }

  // Wall-deadline variant for flows gated by kernel TCP timers (delayed
  // ACKs under a pinched SO_SNDBUF): still pure event polling -- returns
  // the moment the predicate holds -- but allows real time to pass.
  template <typename Pred>
  bool pump_wall(Pred pred, std::chrono::seconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      loop.run_once(Duration::zero());
    }
    return pred();
  }

  void connect_pair(WireOptions server_options = {},
                    WireOptions client_options = {}) {
    acceptor->set_accept_handler([&, server_options](int fd,
                                                     const SocketAddress&) {
      server = std::make_unique<Connection>(loop, fd, server_options);
    });
    const int fd =
        tcp_connect(acceptor->local_address(), Duration::milliseconds(500));
    client = std::make_unique<Connection>(loop, fd, client_options);
    ASSERT_TRUE(pump_until([&] { return server != nullptr; }));
  }

  // Raw client socket the test writes hand-built frames on.
  void connect_raw(WireOptions server_options = {}) {
    acceptor->set_accept_handler([&, server_options](int fd,
                                                     const SocketAddress&) {
      server = std::make_unique<Connection>(loop, fd, server_options);
    });
    raw_client_fd =
        tcp_connect(acceptor->local_address(), Duration::milliseconds(500));
    ASSERT_TRUE(pump_until([&] { return server != nullptr; }));
  }

  static std::string frame(std::string_view payload) {
    const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
    std::string out(4, '\0');
    std::memcpy(out.data(), &n, 4);  // little-endian on every target we build
    out.append(payload);
    return out;
  }
};

TEST_F(TransportFixture, EchoRoundTrip) {
  connect_pair();
  server->set_message_handler(
      [&](std::string_view payload) { server->send(payload); });
  std::string got;
  client->set_message_handler(
      [&](std::string_view payload) { got.assign(payload); });
  ASSERT_TRUE(client->send("hello, offload"));
  ASSERT_TRUE(pump_until([&] { return !got.empty(); }));
  EXPECT_EQ(got, "hello, offload");
  EXPECT_EQ(client->messages_out(), 1u);
  EXPECT_EQ(client->messages_in(), 1u);
  EXPECT_EQ(server->messages_in(), 1u);
}

TEST_F(TransportFixture, ReassemblesFragmentedFrames) {
  connect_raw();
  std::vector<std::string> got;
  server->set_message_handler(
      [&](std::string_view payload) { got.emplace_back(payload); });
  const std::string bytes = frame("fragmented-payload");
  // Dribble the frame one byte at a time, pumping between writes so the
  // reader sees every possible split point.
  for (char c : bytes) {
    ASSERT_EQ(write(raw_client_fd, &c, 1), 1);
    loop.run_once(Duration::zero());
  }
  ASSERT_TRUE(pump_until([&] { return !got.empty(); }));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "fragmented-payload");
}

TEST_F(TransportFixture, SplitsCoalescedFrames) {
  connect_raw();
  std::vector<std::string> got;
  server->set_message_handler(
      [&](std::string_view payload) { got.emplace_back(payload); });
  // Three frames in a single write(): one segment, three messages.
  const std::string bytes = frame("a") + frame("") + frame("ccc");
  ASSERT_EQ(write(raw_client_fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ASSERT_TRUE(pump_until([&] { return got.size() == 3; }));
  EXPECT_EQ(got[0], "a");
  EXPECT_EQ(got[1], "");
  EXPECT_EQ(got[2], "ccc");
}

TEST_F(TransportFixture, OversizeFrameClosesConnection) {
  WireOptions small;
  small.max_frame_bytes = 64;
  connect_raw(small);
  std::string reason;
  int closes = 0;
  server->set_close_handler([&](const std::string& r) {
    reason = r;
    ++closes;
  });
  const std::uint32_t huge = 1 << 16;
  char header[4];
  std::memcpy(header, &huge, 4);
  ASSERT_EQ(write(raw_client_fd, header, 4), 4);
  ASSERT_TRUE(pump_until([&] { return closes > 0; }));
  EXPECT_EQ(closes, 1);
  EXPECT_TRUE(server->closed());
  EXPECT_FALSE(reason.empty());
}

TEST_F(TransportFixture, OversizeSendIsRejectedLocally) {
  WireOptions small;
  small.max_frame_bytes = 64;
  connect_pair(WireOptions{}, small);
  EXPECT_FALSE(client->send(std::string(65, 'x')));
  EXPECT_TRUE(client->send(std::string(64, 'x')));
}

TEST_F(TransportFixture, PeerDisconnectDeliversCloseOnce) {
  connect_raw();
  int closes = 0;
  server->set_close_handler([&](const std::string&) { ++closes; });
  ::close(raw_client_fd);
  raw_client_fd = -1;
  ASSERT_TRUE(pump_until([&] { return closes > 0; }));
  // Extra pumping must not re-deliver.
  for (int i = 0; i < 100; ++i) loop.run_once(Duration::zero());
  EXPECT_EQ(closes, 1);
  EXPECT_TRUE(server->closed());
  EXPECT_FALSE(server->send("after close"));
}

TEST_F(TransportFixture, BackpressureQueuesAndDrains) {
  WireOptions big;
  big.max_frame_bytes = std::size_t{8} << 20;
  connect_pair(big, big);
  std::size_t got = 0;
  server->set_message_handler(
      [&](std::string_view payload) { got = payload.size(); });
  // Pin the send buffer far below the payload so the first write cannot
  // take it all; the remainder queues and drains through EPOLLOUT over
  // many pumps.
  const int sndbuf = 8 * 1024;
  ASSERT_EQ(setsockopt(client->fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                       sizeof sndbuf),
            0);
  const std::string payload(std::size_t{2} << 20, 'p');
  ASSERT_TRUE(client->send(payload));
  EXPECT_GT(client->queued_bytes(), 0u);
  // The pinched send buffer forces the kernel's delayed-ACK cadence onto
  // the drain, so this leg needs real milliseconds, not iterations.
  ASSERT_TRUE(pump_wall([&] { return got == payload.size(); },
                        std::chrono::seconds(30)));
  EXPECT_EQ(client->queued_bytes(), 0u);
  EXPECT_EQ(client->bytes_out(), payload.size() + 4);
}

}  // namespace
}  // namespace rt::net
