#pragma once
// One-shot timers on a 4-ary min-heap of (deadline, seq) nodes
// (util/dary_heap.hpp): timers that fall due together fire as SimEngine
// pops its events, earliest deadline first, equal deadlines in schedule
// order. Callbacks sit in a generation-tagged slot vector with a free
// list; a TimerId packs
// generation and slot, so firing or cancelling invalidates it in O(1). The
// queue is passive: the owning EventLoop calls advance(now), under the
// real clock or a FakeClock.
//
// Contract: timers fire in (deadline, seq) order, never before their
// deadline, and only inside advance(); a timer armed by a firing callback
// waits for the next advance() even when already due (no zero-delay
// livelock), while older due timers still fire past it; cancel() returns
// true iff it removed a pending timer, and destroys the callback at once.
// Cancelled nodes are dropped lazily, when they reach the heap top. That
// is bounded: the only callers that cancel, the runtime's slice ends and
// compensation windows, are near-term.

#include <cstdint>
#include <functional>
#include <vector>

#include "util/time.hpp"

namespace rt::obs {
class Counter;
class Sink;
}  // namespace rt::obs

namespace rt::net {

using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

class TimerQueue {
 public:
  explicit TimerQueue(TimePoint start, obs::Sink* sink = nullptr);

  /// Past (or present) deadlines fire on the next advance().
  TimerId schedule(TimePoint deadline, std::function<void()> callback);
  bool cancel(TimerId id);  ///< true iff a pending timer was removed
  /// Moves now() forward (earlier values are ignored) and fires every due
  /// timer. Returns the number fired.
  std::size_t advance(TimePoint now);

  /// The heap top (always live), TimePoint::max() when idle.
  [[nodiscard]] TimePoint next_deadline() const {
    return heap_.empty() ? TimePoint::max() : TimePoint(heap_[0].deadline_ns);
  }
  [[nodiscard]] std::size_t pending() const { return slots_.size() - free_.size(); }
  [[nodiscard]] TimePoint now() const { return now_; }

 private:
  struct Node {
    std::int64_t deadline_ns;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
    friend bool operator<(const Node& a, const Node& b) {
      if (a.deadline_ns != b.deadline_ns) return a.deadline_ns < b.deadline_ns;
      return a.seq < b.seq;
    }
  };
  struct Slot {
    std::function<void()> callback;  ///< empty while the slot is free
    std::uint32_t generation = 0;
  };

  [[nodiscard]] bool live(const Node& node) const {
    return slots_[node.slot].generation == node.generation;
  }
  /// Frees the slot (the generation bump invalidates its id and heap node),
  /// drops the cancelled nodes on the heap top, and hands back the callback.
  std::function<void()> release(std::uint32_t slot);

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  bool in_advance_ = false;
  std::vector<Node> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<Node> due_;  ///< the running advance()'s due timers, in order
  obs::Counter* scheduled_ = nullptr;
  obs::Counter* fired_ = nullptr;
  obs::Counter* cancelled_ = nullptr;
};

}  // namespace rt::net
