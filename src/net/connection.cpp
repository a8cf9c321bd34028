#include "net/connection.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/event_loop.hpp"
#include "obs/sink.hpp"

namespace rt::net {

namespace {

void put_u32_le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::uint32_t get_u32_le(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(u[0]) |
         (static_cast<std::uint32_t>(u[1]) << 8) |
         (static_cast<std::uint32_t>(u[2]) << 16) |
         (static_cast<std::uint32_t>(u[3]) << 24);
}

constexpr std::size_t kHeaderBytes = 4;

}  // namespace

Connection::Connection(EventLoop& loop, int fd, WireOptions options,
                       obs::Sink* sink)
    : loop_(loop), fd_(fd), options_(options) {
  if (sink != nullptr) {
    obs::MetricRegistry& reg = sink->registry();
    frames_in_ = &reg.counter("net.conn.frames_in");
    frames_out_ = &reg.counter("net.conn.frames_out");
    frame_bytes_ = &reg.histogram("net.conn.frame_bytes");
  }
  loop_.watch(fd_, /*read=*/true, /*write=*/false,
              [this](bool readable, bool writable) {
                on_event(readable, writable);
              });
}

Connection::~Connection() {
  if (fd_ >= 0) {
    loop_.unwatch(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

bool Connection::send(std::string_view payload) {
  if (fd_ < 0) return false;
  if (payload.size() > options_.max_frame_bytes) return false;
  out_buf_.reserve(out_buf_.size() + kHeaderBytes + payload.size());
  put_u32_le(out_buf_, static_cast<std::uint32_t>(payload.size()));
  out_buf_.append(payload.data(), payload.size());
  ++messages_out_;
  obs::inc(frames_out_);
  obs::observe(frame_bytes_, static_cast<std::int64_t>(payload.size()));
  handle_writable();
  return fd_ >= 0;
}

void Connection::close(const std::string& reason) { shutdown_internal(reason); }

void Connection::on_event(bool readable, bool writable) {
  in_dispatch_ = true;
  if (writable && fd_ >= 0) handle_writable();
  if (readable && fd_ >= 0) handle_readable();
  in_dispatch_ = false;
}

void Connection::handle_readable() {
  char chunk[16 * 1024];
  for (;;) {
    const std::size_t want = std::min(sizeof(chunk), options_.read_chunk);
    const ssize_t n = ::recv(fd_, chunk, want, 0);
    if (n > 0) {
      in_buf_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      shutdown_internal("peer closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    shutdown_internal(std::string("recv: ") + std::strerror(errno));
    return;
  }

  // Frame reassembly: consume complete [len | payload] frames; a partial
  // trailer stays buffered until more bytes arrive.
  while (fd_ >= 0) {
    const std::size_t available = in_buf_.size() - in_offset_;
    if (available < kHeaderBytes) break;
    const std::uint32_t len = get_u32_le(in_buf_.data() + in_offset_);
    if (len > options_.max_frame_bytes) {
      shutdown_internal("frame of " + std::to_string(len) +
                        " bytes exceeds max_frame_bytes");
      return;
    }
    if (available < kHeaderBytes + len) break;
    const std::string_view payload(in_buf_.data() + in_offset_ + kHeaderBytes,
                                   len);
    in_offset_ += kHeaderBytes + len;
    ++messages_in_;
    obs::inc(frames_in_);
    if (message_handler_) message_handler_(payload);
  }
  // Compact once the consumed prefix dominates, keeping the amortized
  // cost linear without shifting on every frame.
  if (in_offset_ > 0 && in_offset_ * 2 >= in_buf_.size()) {
    in_buf_.erase(0, in_offset_);
    in_offset_ = 0;
  }
}

void Connection::handle_writable() {
  while (out_offset_ < out_buf_.size()) {
    const ssize_t n = ::send(fd_, out_buf_.data() + out_offset_,
                             out_buf_.size() - out_offset_, MSG_NOSIGNAL);
    if (n > 0) {
      bytes_out_ += static_cast<std::uint64_t>(n);
      out_offset_ += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    shutdown_internal(std::string("send: ") + std::strerror(errno));
    return;
  }
  if (out_offset_ == out_buf_.size()) {
    out_buf_.clear();
    out_offset_ = 0;
  } else if (out_offset_ >= (std::size_t{64} * 1024)) {
    out_buf_.erase(0, out_offset_);
    out_offset_ = 0;
  }
  update_interest();
}

void Connection::update_interest() {
  if (fd_ < 0) return;
  const bool want_write = out_offset_ < out_buf_.size();
  if (want_write == want_write_) return;
  want_write_ = want_write;
  loop_.update(fd_, /*read=*/true, want_write);
}

void Connection::shutdown_internal(const std::string& reason) {
  if (fd_ < 0) return;
  loop_.unwatch(fd_);
  ::close(fd_);
  fd_ = -1;
  if (close_handler_) {
    // Deferred so the owner may delete this Connection from the handler
    // even when the close originated inside read/write dispatch. The
    // handler is moved out: it must not touch the (possibly deleted)
    // Connection.
    CloseHandler handler = std::move(close_handler_);
    close_handler_ = nullptr;
    loop_.post([handler = std::move(handler), reason]() { handler(reason); });
  }
}

}  // namespace rt::net
