#pragma once
// Allocation-free 4-ary min-heap primitives over a std::vector: the event
// and ready queues of the simulation engines and the protocol core.
//
// A 4-ary heap halves the depth of a binary one and keeps each sift-down
// step's children in one cache line for the small nodes stored here.
// Elements order by their operator<; every caller's is (key, unique
// sequence number), a strict total order, so the pop sequence does not
// depend on the heap's shape. Push and pop run several times per
// simulated event and are forced inline: as out-of-line calls they cost
// the engine about a tenth of its event rate.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace rt {

template <typename T>
[[gnu::always_inline]] inline void heap_sift_down(std::vector<T>& heap, std::size_t i) {
  const std::size_t n = heap.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap[c] < heap[best]) best = c;
    }
    if (!(heap[best] < heap[i])) break;
    std::swap(heap[i], heap[best]);
    i = best;
  }
}

template <typename T>
[[gnu::always_inline]] inline void heap_push(std::vector<T>& heap, const T& value) {
  std::size_t i = heap.size();
  heap.push_back(value);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(heap[i] < heap[parent])) break;
    std::swap(heap[i], heap[parent]);
    i = parent;
  }
}

/// Removes heap[0], the minimum; the heap must not be empty.
template <typename T>
[[gnu::always_inline]] inline void heap_pop(std::vector<T>& heap) {
  heap[0] = heap.back();
  heap.pop_back();
  heap_sift_down(heap, 0);
}

}  // namespace rt
