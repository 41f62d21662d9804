// Counting global allocator shared by the allocation tests.
//
// Linking alloc_counter.cpp replaces the global operator new and delete
// with malloc/free wrappers that count every allocation made while a
// ScopedAllocationCount is alive. The replacement is process-wide, so each
// suite that links it is an executable of its own (tests/CMakeLists.txt).
#pragma once

#include <cstddef>

namespace dosn::testing {

/// Counts the heap allocations made, on any thread, between construction
/// and count(). Scopes must not nest.
class ScopedAllocationCount {
 public:
  ScopedAllocationCount();
  ~ScopedAllocationCount();
  ScopedAllocationCount(const ScopedAllocationCount&) = delete;
  ScopedAllocationCount& operator=(const ScopedAllocationCount&) = delete;

  /// Allocations since construction.
  std::size_t count() const;
};

}  // namespace dosn::testing
