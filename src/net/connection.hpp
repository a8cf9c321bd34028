#pragma once
// Nonblocking length-prefixed TCP connection on an EventLoop.
//
// Wire framing: a 4-byte little-endian payload length followed by the
// payload. Reads reassemble frames across arbitrary segment boundaries;
// writes buffer whatever the socket does not take immediately and drain
// on EPOLLOUT. A frame longer than `max_frame_bytes` (either direction)
// is a protocol error and closes the connection.
//
// Lifetime: the owner keeps the Connection alive; handlers are invoked
// synchronously from loop dispatch. Do not destroy a Connection from
// inside its own handler -- the close handler is already delivered via
// loop.post() exactly so the owner can delete it there.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/time.hpp"

namespace rt::obs {
class Counter;
class LogHistogram;
class Sink;
}  // namespace rt::obs

namespace rt::net {

class EventLoop;

struct WireOptions {
  std::size_t max_frame_bytes = std::size_t{1} << 20;
  std::size_t read_chunk = std::size_t{64} * 1024;
};

class Connection {
 public:
  using MessageHandler = std::function<void(std::string_view payload)>;
  /// Delivered at most once, via loop.post(), after the fd is closed.
  using CloseHandler = std::function<void(const std::string& reason)>;

  /// Takes ownership of `fd` (must be nonblocking).
  Connection(EventLoop& loop, int fd, WireOptions options = {},
             obs::Sink* sink = nullptr);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void set_message_handler(MessageHandler handler) {
    message_handler_ = std::move(handler);
  }
  void set_close_handler(CloseHandler handler) {
    close_handler_ = std::move(handler);
  }

  /// Frames and sends (or queues) one payload. Returns false if the
  /// connection is closed or the payload exceeds max_frame_bytes.
  bool send(std::string_view payload);

  void close(const std::string& reason = "closed by owner");
  [[nodiscard]] bool closed() const { return fd_ < 0; }
  [[nodiscard]] int fd() const { return fd_; }

  [[nodiscard]] std::uint64_t bytes_out() const { return bytes_out_; }
  [[nodiscard]] std::uint64_t messages_in() const { return messages_in_; }
  [[nodiscard]] std::uint64_t messages_out() const { return messages_out_; }
  [[nodiscard]] std::size_t queued_bytes() const {
    return out_buf_.size() - out_offset_;
  }

 private:
  void on_event(bool readable, bool writable);
  void handle_readable();
  void handle_writable();
  void update_interest();
  /// Closes the fd and posts the close handler; idempotent.
  void shutdown_internal(const std::string& reason);

  EventLoop& loop_;
  int fd_;
  WireOptions options_;

  MessageHandler message_handler_;
  CloseHandler close_handler_;

  std::string in_buf_;
  std::size_t in_offset_ = 0;
  std::string out_buf_;
  std::size_t out_offset_ = 0;
  bool want_write_ = false;
  bool in_dispatch_ = false;

  std::uint64_t bytes_out_ = 0;
  std::uint64_t messages_in_ = 0;
  std::uint64_t messages_out_ = 0;

  obs::Counter* frames_in_ = nullptr;
  obs::Counter* frames_out_ = nullptr;
  obs::LogHistogram* frame_bytes_ = nullptr;
};

}  // namespace rt::net
