// Counting replacement of the global allocator (sim.allocs_per_event):
// plain malloc/free plus a per-thread allocation count. Every
// non-aligned form is replaced, so no allocation pairs with another
// library's deallocation. Kept in its own translation unit so no caller
// inlines the pair.

#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench_common.hpp"

namespace {

thread_local std::uint64_t t_allocations = 0;

void* allocate(std::size_t size) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* allocate_or_throw(std::size_t size) {
  if (void* p = allocate(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return allocate_or_throw(size); }
void* operator new[](std::size_t size) { return allocate_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

std::uint64_t rtbench::thread_allocations() { return t_allocations; }
