#include "harness/grid_runner.h"

#include <atomic>
#include <thread>

#include "util/thread_budget.h"

namespace flexmoe {

int ResolveGridThreads(int requested) {
  return requested >= 1 ? requested : HardwareThreads();
}

void ParallelFor(int n, int num_threads, const std::function<void(int)>& fn) {
  FLEXMOE_CHECK(n >= 0);
  if (n == 0) return;
  const int workers = std::min(ResolveGridThreads(num_threads), n);
  if (workers <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  // Every worker holds a thread of the process budget while it has cells
  // to run, and returns it when the cells run out, so the grid's tail
  // hands idle cores to the cells still running (their trace helpers).
  ClaimThreads(workers - 1);
  std::atomic<int> next{0};
  auto worker = [&]() {
    while (true) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      fn(i);
    }
    ReleaseThreads(1);
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers - 1));
  for (int t = 1; t < workers; ++t) pool.emplace_back(worker);
  worker();  // the calling thread participates
  for (std::thread& t : pool) t.join();
  ClaimThreads(1);  // the caller is busy again
}

std::vector<GridCellResult> RunExperimentGrid(
    const std::vector<GridCell>& cells, int num_threads) {
  std::vector<GridCellResult> results(cells.size());
  ParallelFor(static_cast<int>(cells.size()), num_threads, [&](int i) {
    const GridCell& cell = cells[static_cast<size_t>(i)];
    GridCellResult& out = results[static_cast<size_t>(i)];
    out.label = cell.label;
    Result<ExperimentReport> r = RunExperiment(cell.options);
    out.status = r.status();
    if (r.ok()) out.report = *std::move(r);
  });
  return results;
}

}  // namespace flexmoe
