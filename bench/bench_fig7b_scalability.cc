// Figure 7(b): scalability — throughput of a single 64-expert MoE layer on
// 8/16/32/64 GPUs, normalized to DeepSpeed on 8 GPUs. The paper reports
// FlexMoE reaching 6.7/10.7/19.8/35.6x while DeepSpeed and FasterMoE trail,
// as balanced computation dominates on a fast interconnect.
//
// Throughput counts EFFECTIVE tokens (processed by their gate-chosen
// experts): DeepSpeed runs at its training configuration (capacity 1.0),
// so its dropped tokens do not count — the same normalization that makes
// the paper's FlexMoE-vs-DeepSpeed-8 ratios exceed the GPU ratio.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "harness/grid_runner.h"
#include "util/string_util.h"
#include "util/table.h"

namespace flexmoe {
namespace {

ModelConfig SingleMoELayer() {
  // One 64-expert MoE layer with GPT-MoE-L expert dimensions.
  ModelConfig m = GptMoEL();
  m.name = "MoE-layer-64e";
  m.num_layers = 2;  // one attention block around the MoE layer
  m.num_moe_layers = 1;
  return m;
}

constexpr double kPaperFlex[] = {6.7, 10.7, 19.8, 35.6};

int Run(const bench::CommonFlags& flags) {
  const bool quick = flags.quick;
  const int threads = flags.threads;
  const char* workload = flags.workload;
  bench::PrintHeader("Figure 7(b) — scalability on 8/16/32/64 GPUs",
                     "single MoE layer, 64 experts, speedup vs DeepSpeed-8");

  const int gpu_counts[] = {8, 16, 32, 64};
  const char* systems[] = {"deepspeed", "fastermoe", "flexmoe"};

  // 12 independent (gpu-count x system) cells on the grid runner.
  std::vector<GridCell> cells;
  for (int gi = 0; gi < 4; ++gi) {
    for (int si = 0; si < 3; ++si) {
      GridCell cell;
      cell.label = StrFormat("%dgpu/%s", gpu_counts[gi], systems[si]);
      cell.options.system = systems[si];
      cell.options.model = SingleMoELayer();
      cell.options.num_gpus = gpu_counts[gi];
      cell.options.balance_coef = 0.001;
      cell.options.capacity_factor = 1.0;  // DeepSpeed's training config
      cell.options.measure_steps = quick ? 40 : 100;
      cell.options.warmup_steps = quick ? 5 : 25;
      cell.options.seed = 47;
      cell.options.workload.scenario.name = workload;
      cells.push_back(std::move(cell));
    }
  }
  const std::vector<GridCellResult> results =
      RunExperimentGrid(cells, threads);

  double throughput[3][4] = {};
  for (int gi = 0; gi < 4; ++gi) {
    for (int si = 0; si < 3; ++si) {
      const GridCellResult& r = results[static_cast<size_t>(gi * 3 + si)];
      FLEXMOE_CHECK_MSG(r.status.ok(), r.status.ToString());
      throughput[si][gi] = r.report.throughput_tokens_per_sec *
                           r.report.mean_effective_token_rate;
    }
  }

  const double base = throughput[0][0];  // DeepSpeed on 8 GPUs
  Table table({"GPUs", "DeepSpeed", "FasterMoE", "FlexMoE",
               "FlexMoE (paper)"});
  for (int gi = 0; gi < 4; ++gi) {
    table.AddRow({StrFormat("%d", gpu_counts[gi]),
                  StrFormat("%.1fx", throughput[0][gi] / base),
                  StrFormat("%.1fx", throughput[1][gi] / base),
                  StrFormat("%.1fx", throughput[2][gi] / base),
                  StrFormat("%.1fx", kPaperFlex[gi])});
  }
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf(
      "shape check: FlexMoE scales near-linearly and holds a constant-\n"
      "factor lead over DeepSpeed; FasterMoE sits between, losing ground\n"
      "as GPU count grows (global shadow synchronization).\n");
  return 0;
}

}  // namespace
}  // namespace flexmoe

int main(int argc, char** argv) {
  return flexmoe::Run(flexmoe::bench::ParseCommonFlags(argc, argv));
}
