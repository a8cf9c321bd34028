#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/sink.hpp"

namespace rt::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

std::uint32_t interest_mask(bool read, bool write) {
  std::uint32_t events = EPOLLRDHUP;
  if (read) events |= EPOLLIN;
  if (write) events |= EPOLLOUT;
  return events;
}

}  // namespace

EventLoop::EventLoop(EventLoopOptions options)
    : clock_(options.clock != nullptr ? options.clock
                                      : &SystemClock::instance()),
      timers_(clock_->now(), options.sink),
      real_clock_(dynamic_cast<SystemClock*>(clock_) != nullptr),
      sink_(options.sink) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) throw_errno("eventfd");
  epoll_ctl_or_throw(EPOLL_CTL_ADD, wake_fd_, EPOLLIN);
  if (real_clock_) {
    timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (timer_fd_ < 0) throw_errno("timerfd_create");
    epoll_ctl_or_throw(EPOLL_CTL_ADD, timer_fd_, EPOLLIN);
  }
  if (sink_ != nullptr) {
    obs::MetricRegistry& reg = sink_->registry();
    poll_wait_ns_ = &reg.histogram("net.loop.poll_wait_ns");
    dispatch_ns_ = &reg.histogram("net.loop.dispatch_ns");
    iterations_ = &reg.counter("net.loop.iterations");
    wakeups_ = &reg.counter("net.loop.wakeups");
  }
}

EventLoop::~EventLoop() {
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::epoll_ctl_or_throw(int op, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, op, fd, &ev) != 0) throw_errno("epoll_ctl");
}

void EventLoop::watch(int fd, bool read, bool write, FdCallback callback) {
  if (!callback) throw std::invalid_argument("EventLoop::watch: null callback");
  const std::uint32_t events = interest_mask(read, write);
  const auto it = watchers_.find(fd);
  if (it == watchers_.end()) {
    epoll_ctl_or_throw(EPOLL_CTL_ADD, fd, events);
    watchers_.emplace(fd, Watcher{std::move(callback), events});
  } else {
    if (it->second.events != events) {
      epoll_ctl_or_throw(EPOLL_CTL_MOD, fd, events);
    }
    it->second = Watcher{std::move(callback), events};
  }
}

void EventLoop::update(int fd, bool read, bool write) {
  const auto it = watchers_.find(fd);
  if (it == watchers_.end()) {
    throw std::logic_error("EventLoop::update: fd not watched");
  }
  const std::uint32_t events = interest_mask(read, write);
  if (events == it->second.events) return;
  epoll_ctl_or_throw(EPOLL_CTL_MOD, fd, events);
  it->second.events = events;
}

void EventLoop::unwatch(int fd) {
  const auto it = watchers_.find(fd);
  if (it == watchers_.end()) return;
  // The fd may already be closed by the owner; EBADF/ENOENT are benign.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  watchers_.erase(it);
}

void EventLoop::post(std::function<void()> task) {
  if (!task) throw std::invalid_argument("EventLoop::post: null task");
  {
    const std::lock_guard<std::mutex> lock(deferred_mu_);
    deferred_.push_back(std::move(task));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::stop() { request_stop(); }

void EventLoop::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::drain_wakeup() {
  std::uint64_t buf = 0;
  while (::read(wake_fd_, &buf, sizeof(buf)) > 0) {
  }
}

std::size_t EventLoop::drain_deferred() {
  std::deque<std::function<void()>> tasks;
  {
    const std::lock_guard<std::mutex> lock(deferred_mu_);
    tasks.swap(deferred_);
  }
  for (std::function<void()>& task : tasks) task();
  return tasks.size();
}

void EventLoop::arm_timerfd(TimePoint next) {
  itimerspec its{};
  if (next != TimePoint::max()) {
    // it_value == {0,0} would disarm; clamp so a zero/past deadline still
    // fires (immediately).
    const std::int64_t ns = std::max<std::int64_t>(next.ns(), 1);
    its.it_value.tv_sec = ns / 1'000'000'000;
    its.it_value.tv_nsec = ns % 1'000'000'000;
  }
  if (::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &its, nullptr) != 0) {
    throw_errno("timerfd_settime");
  }
}

std::size_t EventLoop::run_once(Duration max_wait) {
  obs::inc(iterations_);
  int timeout_ms = 0;
  if (real_clock_) {
    bool have_deferred = false;
    {
      const std::lock_guard<std::mutex> lock(deferred_mu_);
      have_deferred = !deferred_.empty();
    }
    arm_timerfd(timers_.next_deadline());
    if (have_deferred || stop_requested() || max_wait <= Duration::zero()) {
      timeout_ms = 0;
    } else if (max_wait == Duration::max()) {
      timeout_ms = -1;  // the timerfd bounds the sleep
    } else {
      const std::int64_t ms = (max_wait.ns() + 999'999) / 1'000'000;
      timeout_ms = static_cast<int>(std::min<std::int64_t>(ms, 1 << 30));
    }
  }

  epoll_event events[64];
  const std::int64_t wait_start = sink_ != nullptr ? sink_->now_ns() : 0;
  int ready = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  if (ready < 0) {
    if (errno != EINTR) throw_errno("epoll_wait");
    ready = 0;
  }
  const std::int64_t wait_end = sink_ != nullptr ? sink_->now_ns() : 0;
  obs::observe(poll_wait_ns_, wait_end - wait_start);

  std::size_t dispatched = timers_.advance(clock_->now());
  for (int i = 0; i < ready; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wake_fd_) {
      drain_wakeup();
      obs::inc(wakeups_);
      continue;
    }
    if (fd == timer_fd_) {
      std::uint64_t expirations = 0;
      [[maybe_unused]] const ssize_t n =
          ::read(timer_fd_, &expirations, sizeof(expirations));
      continue;
    }
    const auto it = watchers_.find(fd);
    if (it == watchers_.end()) continue;  // unwatched by an earlier callback
    const std::uint32_t got = events[i].events;
    const bool readable = (got & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0;
    const bool writable = (got & EPOLLOUT) != 0;
    // Copy: the callback may unwatch (erase) its own entry while running.
    const FdCallback callback = it->second.callback;
    callback(readable, writable);
    ++dispatched;
  }
  dispatched += timers_.advance(clock_->now());
  dispatched += drain_deferred();
  obs::observe(dispatch_ns_,
               sink_ != nullptr ? sink_->now_ns() - wait_end : 0);
  return dispatched;
}

void EventLoop::run() {
  if (!real_clock_) {
    throw std::logic_error(
        "EventLoop::run: needs the system clock (tests drive run_once)");
  }
  while (!stop_requested()) run_once(Duration::max());
  // Posted cleanup (deferred connection teardown) still runs after stop;
  // nobody reads the count once the loop is done.
  (void)drain_deferred();
}

}  // namespace rt::net
