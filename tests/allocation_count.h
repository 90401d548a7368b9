// Counts every global allocation and its bytes, for tests that assert a
// path never reaches the heap, reaches it exactly as often as another
// path, or stays under a byte budget. It defines the replacement
// operators, so include it from one translation unit per test binary.
// They stay out of line: inlined into a caller, GCC pairs their
// malloc/free with the new/delete expression and reports a false
// mismatch. The nothrow form is replaced too (std::stable_sort's buffer
// uses it): under AddressSanitizer it would otherwise come from the
// sanitizer while its delete comes from here.

#ifndef FLEXMOE_TESTS_ALLOCATION_COUNT_H_
#define FLEXMOE_TESTS_ALLOCATION_COUNT_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

inline std::atomic<int64_t> g_flexmoe_test_allocations{0};
inline std::atomic<int64_t> g_flexmoe_test_allocated_bytes{0};

inline void FlexmoeTestCountAllocation(std::size_t size) {
  g_flexmoe_test_allocations.fetch_add(1, std::memory_order_relaxed);
  g_flexmoe_test_allocated_bytes.fetch_add(static_cast<int64_t>(size),
                                           std::memory_order_relaxed);
}

__attribute__((noinline)) void* operator new(std::size_t size) {
  FlexmoeTestCountAllocation(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
__attribute__((noinline)) void* operator new(std::size_t size,
                                             const std::nothrow_t&) noexcept {
  FlexmoeTestCountAllocation(size);
  return std::malloc(size == 0 ? 1 : size);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}

namespace flexmoe {
/// Global allocations this process has made so far.
inline int64_t AllocationCount() {
  return g_flexmoe_test_allocations.load(std::memory_order_relaxed);
}
/// Bytes those allocations asked for (frees are not subtracted).
inline int64_t AllocatedBytes() {
  return g_flexmoe_test_allocated_bytes.load(std::memory_order_relaxed);
}
}  // namespace flexmoe

#endif  // FLEXMOE_TESTS_ALLOCATION_COUNT_H_
