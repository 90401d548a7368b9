#include "util/thread_budget.h"

#include <atomic>
#include <thread>

#include "util/status.h"

namespace flexmoe {

namespace {

/// Busy simulation threads, the calling (main) thread included.
std::atomic<int> g_busy_threads{1};

}  // namespace

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

bool TryClaimThread() {
  static const int capacity = HardwareThreads();
  int busy = g_busy_threads.load(std::memory_order_relaxed);
  while (busy < capacity) {
    if (g_busy_threads.compare_exchange_weak(busy, busy + 1,
                                             std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void ClaimThreads(int n) {
  FLEXMOE_CHECK(n >= 0);
  g_busy_threads.fetch_add(n, std::memory_order_relaxed);
}

void ReleaseThreads(int n) {
  FLEXMOE_CHECK(n >= 0);
  const int before = g_busy_threads.fetch_sub(n, std::memory_order_relaxed);
  FLEXMOE_CHECK(before >= n);
}

}  // namespace flexmoe
