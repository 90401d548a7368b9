// Tests for the parallel experiment-grid runner: thread-count-independent
// results (the determinism contract of DESIGN.md "Performance
// architecture"), error propagation, and ParallelFor coverage.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "harness/golden.h"
#include "harness/grid_runner.h"

namespace flexmoe {
namespace {

ExperimentOptions SmallExperiment(const std::string& system, uint64_t seed) {
  ExperimentOptions o;
  o.system = system;
  o.model = GptMoES();
  o.model.num_experts = 8;
  o.model.num_moe_layers = 1;
  o.model.tokens_per_gpu = 1024;
  o.num_gpus = 8;
  o.measure_steps = 10;
  o.warmup_steps = 2;
  o.seed = seed;
  return o;
}

std::vector<GridCell> SmallGrid() {
  std::vector<GridCell> cells;
  const char* systems[] = {"deepspeed", "fastermoe", "flexmoe", "swipe"};
  for (const char* system : systems) {
    for (uint64_t seed : {3u, 4u}) {
      GridCell cell;
      cell.label = std::string(system) + "/" + std::to_string(seed);
      cell.options = SmallExperiment(system, seed);
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

TEST(ParallelForTest, CoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  ParallelFor(257, 4, [&](int i) { ++hits[static_cast<size_t>(i)]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ZeroAndSingleItem) {
  ParallelFor(0, 4, [](int) { FAIL() << "must not be called"; });
  int calls = 0;
  ParallelFor(1, 4, [&](int i) {
    EXPECT_EQ(i, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ResolveGridThreadsTest, Resolution) {
  EXPECT_EQ(ResolveGridThreads(3), 3);
  EXPECT_EQ(ResolveGridThreads(1), 1);
  EXPECT_GE(ResolveGridThreads(0), 1);
  EXPECT_GE(ResolveGridThreads(-2), 1);
}

TEST(GridRunnerTest, ResultsIndependentOfThreadCount) {
  // Training cells plus a serving cell. At 1 thread every cell's trace
  // helper engages; at hardware threads the budget keeps them off while
  // every core runs a cell. Neither may change a byte.
  std::vector<GridCell> cells = SmallGrid();
  GridCell serving;
  serving.label = "serving/bursty/flexmoe";
  serving.options = ServingSizeMixCell("bursty", "flexmoe");
  cells.push_back(serving);
  const std::vector<GridCellResult> serial = RunExperimentGrid(cells, 1);
  const std::vector<GridCellResult> parallel4 = RunExperimentGrid(cells, 4);
  const std::vector<GridCellResult> parallel3 = RunExperimentGrid(cells, 3);
  const std::vector<GridCellResult> hardware = RunExperimentGrid(cells, 0);

  ASSERT_EQ(serial.size(), cells.size());
  for (const auto* run : {&parallel4, &parallel3, &hardware}) {
    ASSERT_EQ(run->size(), cells.size());
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    for (const auto* run : {&parallel4, &parallel3, &hardware}) {
      const GridCellResult& a = serial[i];
      const GridCellResult& b = (*run)[i];
      EXPECT_EQ(a.label, b.label);
      ASSERT_TRUE(a.status.ok()) << a.status.ToString();
      ASSERT_TRUE(b.status.ok()) << b.status.ToString();
      // Bit-exact equality of the simulated outcomes: the grid runner may
      // not perturb any cell's arithmetic, only its wall-clock placement.
      EXPECT_EQ(a.report.mean_step_seconds, b.report.mean_step_seconds) << i;
      EXPECT_EQ(a.report.throughput_tokens_per_sec,
                b.report.throughput_tokens_per_sec)
          << i;
      EXPECT_EQ(a.report.mean_balance_ratio, b.report.mean_balance_ratio)
          << i;
      EXPECT_EQ(a.report.hours_to_target, b.report.hours_to_target) << i;
      EXPECT_EQ(a.report.stats.steps().size(), b.report.stats.steps().size());
      EXPECT_EQ(FormatDigest(DigestFromReport(a.label, a.report)),
                FormatDigest(DigestFromReport(b.label, b.report)))
          << i;
    }
  }
  EXPECT_TRUE(serial.back().report.serving);
}

TEST(GridRunnerTest, MoreThreadsThanCells) {
  std::vector<GridCell> cells;
  GridCell cell;
  cell.label = "only";
  cell.options = SmallExperiment("flexmoe", 5);
  cells.push_back(cell);
  const std::vector<GridCellResult> results = RunExperimentGrid(cells, 16);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_GT(results[0].report.mean_step_seconds, 0.0);
}

TEST(GridRunnerTest, InvalidCellReportsErrorWithoutPoisoningOthers) {
  std::vector<GridCell> cells = SmallGrid();
  GridCell bad;
  bad.label = "bad";
  bad.options = SmallExperiment("no-such-system", 6);
  cells.insert(cells.begin() + 1, bad);
  const std::vector<GridCellResult> results = RunExperimentGrid(cells, 4);
  ASSERT_EQ(results.size(), cells.size());
  EXPECT_FALSE(results[1].status.ok());
  for (size_t i = 0; i < results.size(); ++i) {
    if (i == 1) continue;
    EXPECT_TRUE(results[i].status.ok()) << results[i].status.ToString();
  }
}

}  // namespace
}  // namespace flexmoe
