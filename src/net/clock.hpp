#pragma once
// Monotonic-clock abstraction for the event loop and its timer queue.
//
// Everything in src/net/ reads time through this interface so the unit
// suites (tests/net/) can drive the loop with a FakeClock and no real
// sleeps, while production code runs on CLOCK_MONOTONIC. TimePoint is
// reused for wall instants: for SystemClock the epoch is the kernel's
// monotonic origin, which is meaningless in absolute terms but exact for
// the differences the loop computes.

#include <stdexcept>

#include "util/time.hpp"

namespace rt::net {

class Clock {
 public:
  virtual ~Clock() = default;
  [[nodiscard]] virtual TimePoint now() const = 0;
};

/// CLOCK_MONOTONIC via clock_gettime; shared by every process on the
/// machine, which is what lets the loopback daemon anchor reply deadlines
/// on client-stamped send times (see docs/RUNTIME.md).
class SystemClock final : public Clock {
 public:
  [[nodiscard]] TimePoint now() const override;
  /// Process-wide instance for the common "no clock injected" case.
  static SystemClock& instance();
};

/// Manually advanced clock for tests. Strictly monotone: rewinding is a
/// logic error, matching the kernel clock the production code sees.
class FakeClock final : public Clock {
 public:
  explicit FakeClock(TimePoint start = TimePoint::zero()) : now_(start) {}

  [[nodiscard]] TimePoint now() const override { return now_; }

  void advance(Duration d) {
    if (d.is_negative()) throw std::logic_error("FakeClock: negative advance");
    now_ += d;
  }
  void set(TimePoint t) {
    if (t < now_) throw std::logic_error("FakeClock: time moved backwards");
    now_ = t;
  }

 private:
  TimePoint now_;
};

}  // namespace rt::net
