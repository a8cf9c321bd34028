// TimerQueue unit suite: (deadline, seq) firing order, deadlines across
// 100 µs x 256^k boundaries, cancel-after-fire semantics, and re-arm
// behaviour. The queue is passive (advance(now) is called by the owner),
// so the whole suite is driven by synthetic TimePoints -- no clock, no
// sleeps.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "net/timer_queue.hpp"
#include "util/time.hpp"

namespace rt::net {
namespace {

/// Unit of the boundary deadlines below (100 µs x 256^k +/- one unit).
constexpr Duration kTick = Duration::microseconds(100);

TimePoint at_us(std::int64_t us) { return TimePoint(us * 1000); }

TEST(TimerQueueTest, FiresAtDeadlineNotBefore) {
  TimerQueue timers(TimePoint::zero());
  int fired = 0;
  timers.schedule(at_us(500), [&] { ++fired; });

  EXPECT_EQ(timers.advance(at_us(499)), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(timers.advance(at_us(500)), 1u);
  EXPECT_EQ(fired, 1);
  // One-shot: no re-fire on later advances.
  EXPECT_EQ(timers.advance(at_us(10000)), 0u);
  EXPECT_EQ(fired, 1);
}

TEST(TimerQueueTest, SubTickDeadlineParksUntilPassed) {
  TimerQueue timers(TimePoint::zero());
  int fired = 0;
  // Deadline in the middle of a 100 us unit: the callback must wait
  // until now >= 450 us, not fire at the 400 us boundary.
  timers.schedule(TimePoint(450'000), [&] { ++fired; });
  EXPECT_EQ(timers.advance(TimePoint(449'999)), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(timers.advance(TimePoint(450'000)), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(TimerQueueTest, PastDeadlineFiresOnNextAdvance) {
  TimerQueue timers(TimePoint::zero());
  timers.advance(at_us(1000));
  int fired = 0;
  timers.schedule(at_us(200), [&] { ++fired; });  // already past
  EXPECT_EQ(fired, 0);                           // never inside schedule()
  EXPECT_EQ(timers.advance(at_us(1000)), 1u);     // same now is enough
  EXPECT_EQ(fired, 1);
}

TEST(TimerQueueTest, CascadeBoundaries) {
  // Deadlines straddling 100 us * 256^k +/- 100 us. Each must fire at
  // (not after, not before) its exact deadline.
  TimerQueue timers(TimePoint::zero());
  const std::int64_t tick_ns = kTick.ns();
  std::vector<std::int64_t> deadlines_ns;
  for (std::int64_t span : {std::int64_t{256}, std::int64_t{256} * 256,
                            std::int64_t{256} * 256 * 256}) {
    deadlines_ns.push_back((span - 1) * tick_ns);
    deadlines_ns.push_back(span * tick_ns);
    deadlines_ns.push_back((span + 1) * tick_ns);
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> fired;  // (deadline, now)
  TimePoint now = TimePoint::zero();
  // Track `now` by reference so callbacks can record when they ran.
  for (std::int64_t d : deadlines_ns) {
    timers.schedule(TimePoint(d), [&fired, &now, d] {
      fired.emplace_back(d, now.ns());
    });
  }
  // Advance 100 us at a time across the whole range (coarse stride far
  // from boundaries to keep the test fast, fine stride near them).
  const std::int64_t last = deadlines_ns.back() + 2 * tick_ns;
  std::int64_t t = 0;
  while (t <= last) {
    const bool near_boundary = std::any_of(
        deadlines_ns.begin(), deadlines_ns.end(), [&](std::int64_t d) {
          return std::llabs(d - t) <= 256 * tick_ns;
        });
    t += near_boundary ? tick_ns : 128 * tick_ns;
    now = TimePoint(t);
    timers.advance(now);
  }
  ASSERT_EQ(fired.size(), deadlines_ns.size());
  for (const auto& [deadline, when] : fired) {
    EXPECT_GE(when, deadline) << "fired early";
    EXPECT_LE(when - deadline, 256 * tick_ns) << "fired far too late";
  }
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(TimerQueueTest, FarDeadlineClampsButKeepsExactDeadline) {
  TimerQueue timers(TimePoint::zero());
  // 100 us * 2^34, about 54 years out: the timer keeps its exact
  // deadline for next_deadline().
  const std::int64_t far_ns = kTick.ns() * (std::int64_t{1} << 34);
  const TimerId id = timers.schedule(TimePoint(far_ns), [] {});
  EXPECT_EQ(timers.pending(), 1u);
  EXPECT_EQ(timers.next_deadline(), TimePoint(far_ns));
  EXPECT_TRUE(timers.cancel(id));
  EXPECT_EQ(timers.next_deadline(), TimePoint::max());
}

TEST(TimerQueueTest, EmptyWheelJumpsLargeGapsInstantly) {
  // A huge advance over an empty queue costs nothing and moves now().
  TimerQueue timers(TimePoint::zero());
  EXPECT_EQ(timers.advance(TimePoint(kTick.ns() * (std::int64_t{1} << 40))), 0u);
  int fired = 0;
  timers.schedule(timers.now() + Duration::milliseconds(1), [&] { ++fired; });
  timers.advance(timers.now() + Duration::milliseconds(1));
  EXPECT_EQ(fired, 1);
}

TEST(TimerQueueTest, CancelPendingTrueThenFalse) {
  TimerQueue timers(TimePoint::zero());
  int fired = 0;
  const TimerId id = timers.schedule(at_us(300), [&] { ++fired; });
  EXPECT_TRUE(timers.cancel(id));
  EXPECT_FALSE(timers.cancel(id));  // second cancel: already gone
  EXPECT_EQ(timers.advance(at_us(1000)), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(TimerQueueTest, CancelAfterFireReturnsFalse) {
  TimerQueue timers(TimePoint::zero());
  int fired = 0;
  const TimerId id = timers.schedule(at_us(300), [&] { ++fired; });
  EXPECT_EQ(timers.advance(at_us(300)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timers.cancel(id));  // the race the runtime relies on:
                                   // "false" == the compensation ran
}

TEST(TimerQueueTest, CancelUnknownIdReturnsFalse) {
  TimerQueue timers(TimePoint::zero());
  EXPECT_FALSE(timers.cancel(kInvalidTimer));
  EXPECT_FALSE(timers.cancel(TimerId{12345}));
}

TEST(TimerQueueTest, CancelSiblingFromCallback) {
  // Two timers due on the same advance(); the first callback cancels the
  // second. The second must not fire even though both were already due.
  TimerQueue timers(TimePoint::zero());
  int second_fired = 0;
  TimerId second = kInvalidTimer;
  timers.schedule(at_us(100), [&] { timers.cancel(second); });
  second = timers.schedule(at_us(200), [&] { ++second_fired; });
  timers.advance(at_us(1000));
  EXPECT_EQ(second_fired, 0);
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(TimerQueueTest, ZeroDelayRearmDoesNotLivelock) {
  TimerQueue timers(TimePoint::zero());
  int fired = 0;
  std::function<void()> rearm = [&] {
    ++fired;
    timers.schedule(timers.now(), rearm);  // due immediately
  };
  timers.schedule(at_us(100), rearm);
  // Each advance() fires exactly one generation; timers born inside the
  // advance wait for the next call.
  EXPECT_EQ(timers.advance(at_us(100)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(timers.advance(at_us(100)), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(timers.pending(), 1u);
}

TEST(TimerQueueTest, NextDeadlineIsExact) {
  TimerQueue timers(TimePoint::zero());
  EXPECT_EQ(timers.next_deadline(), TimePoint::max());
  timers.schedule(at_us(700), [] {});
  const TimerId early = timers.schedule(at_us(300), [] {});
  timers.schedule(at_us(256 * 100 * 3), [] {});
  EXPECT_EQ(timers.next_deadline(), at_us(300));
  timers.cancel(early);
  EXPECT_EQ(timers.next_deadline(), at_us(700));
  timers.advance(at_us(700));
  EXPECT_EQ(timers.next_deadline(), at_us(256 * 100 * 3));
}

TEST(TimerQueueTest, NextDeadlineSkipsACancelledTimerThatSurfaces) {
  // B is cancelled while below the heap top; once A fires, B's node is the
  // top and must be dropped rather than reported.
  TimerQueue timers(TimePoint::zero());
  timers.schedule(at_us(100), [] {});
  const TimerId b = timers.schedule(at_us(200), [] {});
  timers.schedule(at_us(300), [] {});
  EXPECT_TRUE(timers.cancel(b));
  EXPECT_EQ(timers.advance(at_us(150)), 1u);
  EXPECT_EQ(timers.next_deadline(), at_us(300));
  EXPECT_EQ(timers.pending(), 1u);
}

TEST(TimerQueueTest, FiresInDeadlineOrderAcrossOneAdvance) {
  // A big jump fires everything due; order must be by deadline so a
  // dependent chain (send -> compensation) resolves in protocol order.
  TimerQueue timers(TimePoint::zero());
  std::vector<int> order;
  timers.schedule(at_us(900), [&] { order.push_back(3); });
  timers.schedule(at_us(100), [&] { order.push_back(1); });
  timers.schedule(at_us(500), [&] { order.push_back(2); });
  timers.advance(at_us(1000));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerQueueTest, MonotoneAdvanceIgnoresEarlierNow) {
  TimerQueue timers(TimePoint::zero());
  int fired = 0;
  timers.advance(at_us(1000));
  timers.schedule(at_us(1100), [&] { ++fired; });
  EXPECT_EQ(timers.advance(at_us(500)), 0u);  // ignored, no rewind
  EXPECT_EQ(timers.now(), at_us(1000));
  EXPECT_EQ(timers.advance(at_us(1100)), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(TimerQueueTest, ManyTimersAllFireExactlyOnce) {
  TimerQueue timers(TimePoint::zero());
  constexpr int kN = 2000;
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < kN; ++i) {
    // Deadlines spread over 0.1-900 ms with a deterministic scatter.
    const std::int64_t us = 100 + (static_cast<std::int64_t>(i) * 7919) % 900000;
    timers.schedule(at_us(us), [&counts, i] { ++counts[i]; });
  }
  std::size_t total = 0;
  for (std::int64_t t = 0; t <= 900100; t += 3700) {
    total += timers.advance(at_us(t));
  }
  total += timers.advance(at_us(900200));
  EXPECT_EQ(total, static_cast<std::size_t>(kN));
  EXPECT_EQ(timers.pending(), 0u);
  for (int i = 0; i < kN; ++i) EXPECT_EQ(counts[i], 1) << "timer " << i;
}

TEST(TimerQueueTest, EarlierDeadlineFiresFirstWithinOneAdvance) {
  // Both deadlines fall in one 100 us window and are scheduled latest
  // first; the 120 us timer must still fire before the 150 us one.
  TimerQueue timers(TimePoint::zero());
  std::vector<int> order;
  timers.schedule(at_us(150), [&] { order.push_back(150); });
  timers.schedule(at_us(120), [&] { order.push_back(120); });
  EXPECT_EQ(timers.advance(at_us(200)), 2u);
  EXPECT_EQ(order, (std::vector<int>{120, 150}));
}

TEST(TimerQueueTest, EqualDeadlinesFireInScheduleOrder) {
  // A is armed at 0 for 30 ms; B is armed at 5 ms for the same instant.
  // Like the simulator's (time, seq) heap, A fires first.
  TimerQueue timers(TimePoint::zero());
  std::vector<char> order;
  timers.schedule(at_us(30'000), [&] { order.push_back('A'); });
  EXPECT_EQ(timers.advance(at_us(5'000)), 0u);
  timers.schedule(at_us(30'000), [&] { order.push_back('B'); });
  EXPECT_EQ(timers.advance(at_us(40'000)), 2u);
  EXPECT_EQ(order, (std::vector<char>{'A', 'B'}));
}

TEST(TimerQueueTest, DueNewbornDoesNotHoldBackOlderDueTimers) {
  // The first callback arms a timer that is already due and earlier than
  // its older sibling: the sibling still fires in this advance(), the
  // newborn in the next one.
  TimerQueue timers(TimePoint::zero());
  std::vector<int> order;
  timers.schedule(at_us(100), [&] {
    order.push_back(1);
    timers.schedule(at_us(50), [&] { order.push_back(3); });
  });
  timers.schedule(at_us(500), [&] { order.push_back(2); });
  EXPECT_EQ(timers.advance(at_us(1000)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(timers.next_deadline(), at_us(50));
  EXPECT_EQ(timers.advance(at_us(1000)), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerQueueTest, ScatteredDeadlinesFireInDeadlineThenScheduleOrder) {
  // 2,000 timers on 500 deadlines 37 us apart (four timers each), armed in
  // scattered order and drained in 1.3 ms steps: the fired sequence is
  // sorted by (deadline, schedule order), within and across advances.
  TimerQueue timers(TimePoint::zero());
  std::vector<std::pair<std::int64_t, int>> fired;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t us = 100 + (static_cast<std::int64_t>(i) * 7919) % 500 * 37;
    timers.schedule(at_us(us), [&fired, us, i] { fired.emplace_back(us, i); });
  }
  for (std::int64_t t = 0; t <= 20'000; t += 1300) timers.advance(at_us(t));
  timers.advance(at_us(20'000));
  ASSERT_EQ(fired.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(TimerQueueTest, CancelReleasesCapturesAtOnce) {
  TimerQueue timers(TimePoint::zero());
  auto held = std::make_shared<int>(7);
  const TimerId id = timers.schedule(at_us(300), [held] {});
  EXPECT_EQ(held.use_count(), 2);
  EXPECT_TRUE(timers.cancel(id));
  EXPECT_EQ(held.use_count(), 1);  // not deferred to the 300 us deadline
  timers.advance(at_us(1000));
  EXPECT_EQ(held.use_count(), 1);
}

TEST(TimerQueueTest, StaleIdDoesNotCancelTheSlotsNextTimer) {
  TimerQueue timers(TimePoint::zero());
  const TimerId first = timers.schedule(at_us(100), [] {});
  timers.advance(at_us(100));
  int fired = 0;
  const TimerId second = timers.schedule(at_us(200), [&] { ++fired; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(timers.cancel(first));
  EXPECT_EQ(timers.advance(at_us(200)), 1u);
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace rt::net
