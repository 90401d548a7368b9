// Process-wide budget of hardware threads for simulation work.
//
// Two things in the library start threads: ParallelFor's grid workers
// (harness/grid_runner.h) and the trace-prefetch helpers of
// GeneratorTraceSource (gate/trace_source.h). Both share one count of
// busy threads so a helper only starts on a core that would otherwise sit
// idle: a grid already running one cell per core keeps its helpers off,
// while a serial run (or a grid's tail) hands the spare cores to them.
// The calling (main) thread counts as busy from the start. The budget only
// decides *where* work runs, never what it computes.

#ifndef FLEXMOE_UTIL_THREAD_BUDGET_H_
#define FLEXMOE_UTIL_THREAD_BUDGET_H_

namespace flexmoe {

/// \brief Hardware threads available to the process (at least 1).
int HardwareThreads();

/// \brief Claims one thread if fewer than HardwareThreads() are busy;
/// returns false, claiming nothing, otherwise.
bool TryClaimThread();

/// \brief Claims `n` threads whether or not the budget has room (grid
/// workers run regardless; they only keep helpers from starting).
void ClaimThreads(int n);

/// \brief Returns `n` threads claimed by TryClaimThread or ClaimThreads.
void ReleaseThreads(int n);

}  // namespace flexmoe

#endif  // FLEXMOE_UTIL_THREAD_BUDGET_H_
