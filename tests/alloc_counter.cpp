#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// Relaxed: the counters are read after the counted code has returned on
// the reading thread, and no other memory is published through them.
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dosn::testing {

ScopedAllocationCount::ScopedAllocationCount() {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
}

ScopedAllocationCount::~ScopedAllocationCount() {
  g_counting.store(false, std::memory_order_relaxed);
}

std::size_t ScopedAllocationCount::count() const {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace dosn::testing
