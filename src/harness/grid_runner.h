// Parallel experiment-grid runner. Figure benches sweep (system x config x
// seed) grids whose cells are fully independent: each cell builds its own
// topology, profile, trace generator, and system from an ExperimentOptions
// value and shares no mutable state with any other cell. This runner
// executes those cells on a thread pool.
//
// Determinism contract (tested in grid_runner_test.cc): results depend only
// on each cell's options — never on the thread count, the scheduling order,
// or which worker ran the cell. Every stochastic component inside a cell is
// seeded from the cell's options, and the only process-wide shared state a
// cell touches (the logit-sigma calibration memo) is a pure function of its
// inputs, so concurrent fills are idempotent. Running a grid with 1 thread
// and with N threads yields identical GridCellResults in identical order.

#ifndef FLEXMOE_HARNESS_GRID_RUNNER_H_
#define FLEXMOE_HARNESS_GRID_RUNNER_H_

#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace flexmoe {

/// \brief One cell of an experiment grid.
struct GridCell {
  /// Caller-chosen identifier (e.g. "fig5a/GPT-MoE-S/flexmoe"); carried
  /// into the result so benches can index the grid output.
  std::string label;
  ExperimentOptions options;
};

/// \brief Outcome of one grid cell. `report` is meaningful iff status.ok().
struct GridCellResult {
  std::string label;
  Status status;
  ExperimentReport report;
};

/// \brief Resolves a requested worker count: values >= 1 pass through,
/// anything else selects the hardware concurrency (at least 1).
int ResolveGridThreads(int requested);

/// \brief Runs `fn(0) .. fn(n-1)` on `num_threads` workers (dynamic
/// work-stealing over an atomic index). `fn` must be safe to call
/// concurrently for distinct indices. Blocks until every index completed.
/// Each worker holds a thread of the process budget (util/thread_budget.h)
/// until the indices run out.
void ParallelFor(int n, int num_threads, const std::function<void(int)>& fn);

/// \brief Executes every cell (work-stealing over `num_threads` workers; 0
/// selects hardware concurrency) and returns results in cell order.
std::vector<GridCellResult> RunExperimentGrid(
    const std::vector<GridCell>& cells, int num_threads = 0);

}  // namespace flexmoe

#endif  // FLEXMOE_HARNESS_GRID_RUNNER_H_
