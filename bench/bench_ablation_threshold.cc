// Ablation (beyond the paper): the scheduler's balance-ratio trigger
// threshold. The paper fixes one threshold; this sweep shows the trade-off
// it encodes — a tight threshold chases sampling noise (adjustment churn),
// a loose one tolerates imbalance.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "harness/grid_runner.h"
#include "util/string_util.h"
#include "util/table.h"

namespace flexmoe {
namespace {

int Run(const bench::CommonFlags& flags) {
  const bool quick = flags.quick;
  const int threads = flags.threads;
  const char* workload = flags.workload;
  bench::PrintHeader(
      "Ablation — scheduler trigger threshold (balance ratio)",
      "GPT-MoE-S on 16 GPUs, threshold swept over {1.05 .. 2.0}");

  const double thresholds[] = {1.05, 1.15, 1.3, 1.5, 2.0};
  std::vector<GridCell> cells;
  for (double threshold : thresholds) {
    GridCell cell;
    cell.label = StrFormat("threshold=%.2f", threshold);
    ExperimentOptions& o = cell.options;
    o.system = "flexmoe";
    o.model = GptMoES();
    o.model.num_experts = 16;
    o.model.num_moe_layers = 2;
    o.num_gpus = 16;
    o.balance_coef = 0.001;
    o.scheduler.threshold = threshold;
    o.measure_steps = quick ? 40 : 80;
    o.warmup_steps = quick ? 10 : 25;
    o.seed = 59;
    o.workload.scenario.name = workload;
    cells.push_back(std::move(cell));
  }
  const std::vector<GridCellResult> results =
      RunExperimentGrid(cells, threads);

  Table table({"threshold", "step time (ms)", "balance", "ops applied",
               "hours to target"});
  for (size_t i = 0; i < results.size(); ++i) {
    FLEXMOE_CHECK_MSG(results[i].status.ok(), results[i].status.ToString());
    const ExperimentReport& r = results[i].report;
    table.AddRow({StrFormat("%.2f", thresholds[i]),
                  StrFormat("%.1f", r.mean_step_seconds * 1e3),
                  StrFormat("%.2f", r.mean_balance_ratio),
                  StrFormat("%lld",
                            static_cast<long long>(r.stats.TotalOpsApplied())),
                  StrFormat("%.2f", r.hours_to_target)});
  }
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf(
      "below the placement-granularity floor the threshold only adds churn\n"
      "(ops rise, balance flat); far above it the scheduler sleeps through\n"
      "real imbalance (balance and step time rise).\n");
  return 0;
}

}  // namespace
}  // namespace flexmoe

int main(int argc, char** argv) {
  return flexmoe::Run(flexmoe::bench::ParseCommonFlags(argc, argv));
}
