#pragma once
// Single-threaded epoll event loop: fd watchers + (deadline, seq) timer
// queue + deferred-task queue, over an injectable monotonic clock.
//
// Threading contract: every method except stop()/request_stop()/post()
// must be called from the loop's thread (the thread running run() /
// run_once()). post() is the cross-thread entry point -- it enqueues a
// task and wakes the loop through an eventfd; request_stop() is
// additionally async-signal-safe (one atomic store + one write()).
//
// Timer resolution: timers keep their exact nanosecond deadlines, far
// below epoll_wait's millisecond timeout granularity, so the loop arms a
// timerfd with the queue's next deadline (absolute CLOCK_MONOTONIC) and
// sleeps in epoll until either an fd or the timerfd fires. Under a
// FakeClock the loop never sleeps at all: run_once() polls ready fds and
// fires whatever the manually-advanced clock says is due -- the
// tests/net/ suites run with zero real sleeps.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/clock.hpp"
#include "net/timer_queue.hpp"
#include "util/time.hpp"

namespace rt::obs {
class Counter;
class LogHistogram;
class Sink;
}  // namespace rt::obs

namespace rt::net {

struct EventLoopOptions {
  /// Null selects the process-wide SystemClock.
  Clock* clock = nullptr;
  obs::Sink* sink = nullptr;
};

class EventLoop {
 public:
  /// readable/writable flags mirror the epoll event; error/hup conditions
  /// are reported as readable so the watcher sees EOF through read().
  using FdCallback = std::function<void(bool readable, bool writable)>;

  EventLoop() : EventLoop(EventLoopOptions{}) {}
  explicit EventLoop(EventLoopOptions options);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` with the given interest set; replaces any previous
  /// watcher for the fd. The loop never owns or closes watched fds.
  void watch(int fd, bool read, bool write, FdCallback callback);
  /// Adjusts the interest set of an already-watched fd.
  void update(int fd, bool read, bool write);
  void unwatch(int fd);
  [[nodiscard]] bool watching(int fd) const { return watchers_.count(fd) != 0; }

  TimerId add_timer(TimePoint deadline, std::function<void()> callback) {
    return timers_.schedule(deadline, std::move(callback));
  }
  TimerId add_timer_after(Duration delay, std::function<void()> callback) {
    return timers_.schedule(clock_->now() + delay, std::move(callback));
  }
  bool cancel_timer(TimerId id) { return timers_.cancel(id); }

  /// Enqueues a task to run on the loop thread after fd and timer
  /// dispatch of the current (or next) iteration; FIFO order. Safe from
  /// any thread.
  void post(std::function<void()> task);

  [[nodiscard]] TimePoint now() const { return clock_->now(); }

  /// Runs until stop(); requires a real clock (a FakeClock never moves on
  /// its own, so tests drive run_once() instead).
  void run();
  /// One poll/dispatch iteration: waits up to `max_wait` (clamped by the
  /// next timer deadline; zero under a FakeClock), then dispatches fd
  /// events, due timers, and deferred tasks. Returns the number of
  /// callbacks dispatched.
  std::size_t run_once(Duration max_wait);
  /// Requests run() to return; safe from any thread.
  void stop();
  /// Async-signal-safe stop (for SIGINT/SIGTERM handlers).
  void request_stop();
  [[nodiscard]] bool stop_requested() const {
    return stop_.load(std::memory_order_relaxed);
  }
  /// Rearms a stopped loop so run() can be called again.
  void clear_stop() { stop_.store(false, std::memory_order_relaxed); }

 private:
  struct Watcher {
    FdCallback callback;
    std::uint32_t events = 0;
  };

  void epoll_ctl_or_throw(int op, int fd, std::uint32_t events);
  void arm_timerfd(TimePoint next);
  void drain_wakeup();
  [[nodiscard]] std::size_t drain_deferred();

  Clock* clock_;
  TimerQueue timers_;
  bool real_clock_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;   ///< eventfd: cross-thread post()/stop() wakeup
  int timer_fd_ = -1;  ///< timerfd slaved to the queue's next deadline

  std::unordered_map<int, Watcher> watchers_;
  std::atomic<bool> stop_{false};

  std::mutex deferred_mu_;
  std::deque<std::function<void()>> deferred_;

  obs::Sink* sink_ = nullptr;
  obs::LogHistogram* poll_wait_ns_ = nullptr;
  obs::LogHistogram* dispatch_ns_ = nullptr;
  obs::Counter* iterations_ = nullptr;
  obs::Counter* wakeups_ = nullptr;
};

}  // namespace rt::net
