// EventLoop unit suite, driven end to end by a FakeClock: timers fire
// when the manually-advanced clock says so, deferred tasks keep FIFO
// order and run after dispatch, fd watchers see pipe readability -- all
// with zero real sleeps (run_once never blocks under a FakeClock).

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "net/clock.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "util/time.hpp"

namespace rt::net {
namespace {

struct LoopFixture : ::testing::Test {
  FakeClock clock{TimePoint(1'000'000)};  // nonzero epoch, like the kernel's
  EventLoop loop{EventLoopOptions{&clock, nullptr}};

  // Pump until the loop goes quiet; under a FakeClock every call returns
  // immediately, so this is bounded work, not a wait.
  void pump() {
    for (int i = 0; i < 64; ++i) {
      if (loop.run_once(Duration::zero()) == 0) return;
    }
    FAIL() << "loop did not quiesce in 64 iterations";
  }
};

TEST_F(LoopFixture, TimerFiresOnlyAfterClockAdvance) {
  int fired = 0;
  loop.add_timer_after(Duration::milliseconds(5), [&] { ++fired; });
  pump();
  EXPECT_EQ(fired, 0);
  clock.advance(Duration::milliseconds(4));
  pump();
  EXPECT_EQ(fired, 0);
  clock.advance(Duration::milliseconds(1));
  pump();
  EXPECT_EQ(fired, 1);
}

TEST_F(LoopFixture, AbsoluteTimerUsesInjectedClock) {
  int fired = 0;
  loop.add_timer(loop.now() + Duration::milliseconds(2), [&] { ++fired; });
  clock.advance(Duration::milliseconds(2));
  pump();
  EXPECT_EQ(fired, 1);
}

TEST_F(LoopFixture, CancelTimerSuppressesCallback) {
  int fired = 0;
  const TimerId id =
      loop.add_timer_after(Duration::milliseconds(1), [&] { ++fired; });
  EXPECT_TRUE(loop.cancel_timer(id));
  clock.advance(Duration::milliseconds(10));
  pump();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(loop.cancel_timer(id));
}

TEST_F(LoopFixture, CancelAfterFireRace) {
  // The runtime's reply-vs-compensation race: once the timer fired,
  // cancel_timer returns false and the caller knows the fallback ran.
  int fired = 0;
  const TimerId id =
      loop.add_timer_after(Duration::milliseconds(1), [&] { ++fired; });
  clock.advance(Duration::milliseconds(1));
  pump();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(loop.cancel_timer(id));
}

TEST_F(LoopFixture, DeferredTasksKeepFifoOrder) {
  std::vector<int> order;
  loop.post([&] { order.push_back(1); });
  loop.post([&] { order.push_back(2); });
  loop.post([&] { order.push_back(3); });
  pump();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(LoopFixture, DeferredRunsAfterTimerDispatch) {
  // A task posted before the iteration runs after the due timers of that
  // iteration (post() contract: "after fd and timer dispatch").
  std::vector<std::string> order;
  loop.add_timer_after(Duration::zero(), [&] { order.push_back("timer"); });
  loop.post([&] { order.push_back("deferred"); });
  clock.advance(Duration::microseconds(100));
  pump();
  EXPECT_EQ(order, (std::vector<std::string>{"timer", "deferred"}));
}

TEST_F(LoopFixture, TaskPostedByTaskRunsSameDrain) {
  std::vector<int> order;
  loop.post([&] {
    order.push_back(1);
    loop.post([&] { order.push_back(2); });
  });
  pump();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(LoopFixture, CrossThreadPostIsDelivered) {
  int ran = 0;
  std::thread t([&] { loop.post([&] { ++ran; }); });
  t.join();
  pump();
  EXPECT_EQ(ran, 1);
}

TEST_F(LoopFixture, PipeWatcherSeesReadable) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  set_nonblocking(fds[0]);
  std::string got;
  loop.watch(fds[0], /*read=*/true, /*write=*/false,
             [&](bool readable, bool) {
               if (!readable) return;
               char buf[16];
               const ssize_t n = read(fds[0], buf, sizeof buf);
               if (n > 0) got.assign(buf, static_cast<std::size_t>(n));
             });
  pump();
  EXPECT_TRUE(got.empty());
  ASSERT_EQ(write(fds[1], "ping", 4), 4);
  pump();
  EXPECT_EQ(got, "ping");
  loop.unwatch(fds[0]);
  EXPECT_FALSE(loop.watching(fds[0]));
  close(fds[0]);
  close(fds[1]);
}

TEST_F(LoopFixture, UnwatchedFdStopsDispatching) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  set_nonblocking(fds[0]);
  int events = 0;
  loop.watch(fds[0], true, false, [&](bool, bool) { ++events; });
  ASSERT_EQ(write(fds[1], "x", 1), 1);
  loop.run_once(Duration::zero());
  EXPECT_GE(events, 1);
  const int before = events;
  loop.unwatch(fds[0]);
  loop.run_once(Duration::zero());
  EXPECT_EQ(events, before);
  close(fds[0]);
  close(fds[1]);
}

TEST_F(LoopFixture, StopAndClearStop) {
  EXPECT_FALSE(loop.stop_requested());
  loop.stop();
  EXPECT_TRUE(loop.stop_requested());
  loop.clear_stop();
  EXPECT_FALSE(loop.stop_requested());
  loop.request_stop();  // the async-signal-safe variant
  EXPECT_TRUE(loop.stop_requested());
  loop.clear_stop();
}

TEST_F(LoopFixture, TimerScheduledByTimerNeedsNextIteration) {
  // A callback arming a zero-delay timer must not livelock run_once; the
  // child waits for the next advance (the timer queue's firing contract).
  int fired = 0;
  loop.add_timer_after(Duration::zero(), [&] {
    ++fired;
    loop.add_timer_after(Duration::zero(), [&] { ++fired; });
  });
  clock.advance(Duration::microseconds(100));
  pump();
  EXPECT_EQ(fired, 2);
}

TEST_F(LoopFixture, ClockJumpFiresTimersInDeadlineOrder) {
  // One run_once after the clock jumps past a release, a slice end and a
  // compensation window, armed in a different order from their deadlines.
  // They fire as the simulator pops them, and the release's re-pointing
  // of the next slice end (a cancel) stops that sibling, though it was
  // already due.
  const TimePoint t0 = loop.now();
  std::vector<std::string> order;
  TimerId next_slice = kInvalidTimer;
  loop.add_timer(t0 + Duration::microseconds(150), [&] {
    order.push_back("release");
    EXPECT_TRUE(loop.cancel_timer(next_slice));
  });
  loop.add_timer(t0 + Duration::microseconds(120),
                 [&] { order.push_back("slice_end"); });
  loop.add_timer(t0 + Duration::microseconds(180),
                 [&] { order.push_back("compensation"); });
  next_slice = loop.add_timer(t0 + Duration::microseconds(190),
                              [&] { order.push_back("next_slice_end"); });
  clock.advance(Duration::milliseconds(1));
  EXPECT_EQ(loop.run_once(Duration::zero()), 3u);
  EXPECT_EQ(order, (std::vector<std::string>{"slice_end", "release",
                                             "compensation"}));
  pump();
  EXPECT_EQ(order.size(), 3u);
}

TEST(EventLoopRealClockTest, RunStopsFromTimer) {
  // Smoke for the production run() path (real clock): a short timer
  // stops the loop. Kept to one ~small real delay; everything else in
  // this suite is fake-clock driven.
  EventLoop loop;
  int fired = 0;
  loop.add_timer_after(Duration::milliseconds(5), [&] {
    ++fired;
    loop.stop();
  });
  loop.run();
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace rt::net
