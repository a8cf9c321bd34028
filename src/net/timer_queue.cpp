#include "net/timer_queue.hpp"

#include <stdexcept>

#include "obs/sink.hpp"
#include "util/dary_heap.hpp"

namespace rt::net {

TimerQueue::TimerQueue(TimePoint start, obs::Sink* sink) : now_(start) {
  if (sink != nullptr) {
    scheduled_ = &sink->registry().counter("net.timers.scheduled");
    fired_ = &sink->registry().counter("net.timers.fired");
    cancelled_ = &sink->registry().counter("net.timers.cancelled");
  }
}

TimerId TimerQueue::schedule(TimePoint deadline, std::function<void()> callback) {
  if (!callback) throw std::invalid_argument("TimerQueue: null callback");
  if (free_.empty()) {
    free_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  Slot& s = slots_[slot];
  s.callback = std::move(callback);
  heap_push(heap_, Node{deadline.ns(), next_seq_++, slot, s.generation});
  obs::inc(scheduled_);
  // The index is stored + 1, so no id equals kInvalidTimer.
  return (static_cast<TimerId>(s.generation) << 32) | (TimerId{slot} + 1);
}

std::function<void()> TimerQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  std::function<void()> callback;
  callback.swap(s.callback);  // leaves the slot's empty
  ++s.generation;
  free_.push_back(slot);
  // Keep the top live: drop the cancelled nodes that have surfaced there.
  while (!heap_.empty() && !live(heap_[0])) heap_pop(heap_);
  return callback;
}

bool TimerQueue::cancel(TimerId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id) - 1;
  if (slot >= slots_.size() || !slots_[slot].callback ||
      slots_[slot].generation != static_cast<std::uint32_t>(id >> 32)) {
    return false;
  }
  // Destroyed on return: whatever the closure captured is released now,
  // not when its deadline passes.
  const std::function<void()> callback = release(slot);
  obs::inc(cancelled_);
  return true;
}

std::size_t TimerQueue::advance(TimePoint now) {
  if (in_advance_) throw std::logic_error("TimerQueue: re-entrant advance()");
  if (now > now_) now_ = now;
  // Snapshot the due timers; the ones their callbacks arm wait for the next
  // call. The top was live, so the first due timer fires, and its release()
  // drops any cancelled node the pops left on top.
  due_.clear();
  while (!heap_.empty() && heap_[0].deadline_ns <= now_.ns()) {
    due_.push_back(heap_[0]);
    heap_pop(heap_);
  }
  in_advance_ = true;
  std::size_t fired = 0;
  for (const Node& node : due_) {
    if (!live(node)) continue;  // cancelled before or during this call
    const std::function<void()> callback = release(node.slot);
    ++fired;
    obs::inc(fired_);
    callback();
  }
  in_advance_ = false;
  return fired;
}

}  // namespace rt::net
