// Figure 5: end-to-end system efficiency — wall-clock time to reach the
// common quality target (DeepSpeed's Table 2 value) for DeepSpeed,
// FasterMoE, and FlexMoE.
//   (a) X-MoE-S models on 32 GPUs: FlexMoE 1.80/1.57/1.36x over DeepSpeed
//       (BERT/GPT/Swin), 1.35/1.28/1.15x over FasterMoE.
//   (b) X-MoE-L models on 64 GPUs: up to 2.10x over DeepSpeed and 1.45x
//       over FasterMoE.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "harness/grid_runner.h"
#include "harness/reporters.h"
#include "util/string_util.h"
#include "util/table.h"

namespace flexmoe {
namespace {

struct PaperSpeedups {
  const char* model;
  double vs_deepspeed;
  double vs_fastermoe;
};

constexpr PaperSpeedups kPanelS[] = {
    {"BERT-MoE-S", 1.80, 1.35},
    {"GPT-MoE-S", 1.57, 1.28},
    {"Swin-MoE-S", 1.36, 1.15},
};
constexpr PaperSpeedups kPanelL[] = {
    {"BERT-MoE-L", 2.10, 1.45},
    {"GPT-MoE-L", 1.72, 1.36},
    {"Swin-MoE-L", 1.64, 1.24},
};

constexpr const char* kSystems[3] = {"deepspeed", "fastermoe", "flexmoe"};

void AddPanelCells(const PaperSpeedups* rows, int n, int num_gpus, bool quick,
                   const char* workload, std::vector<GridCell>* cells) {
  for (int i = 0; i < n; ++i) {
    for (int s = 0; s < 3; ++s) {
      GridCell cell;
      cell.label = StrFormat("%s/%s", rows[i].model, kSystems[s]);
      cell.options.system = kSystems[s];
      cell.options.model = *ModelByName(rows[i].model);
      cell.options.num_gpus = num_gpus;
      cell.options.balance_coef = 0.001;
      cell.options.capacity_factor = 1.0;
      cell.options.measure_steps = quick ? 40 : 100;
      cell.options.warmup_steps = quick ? 5 : 25;
      cell.options.seed = 31;
      cell.options.workload.scenario.name = workload;
      cells->push_back(std::move(cell));
    }
  }
}

void PrintPanel(const char* title, const PaperSpeedups* rows, int n,
                int num_gpus, const GridCellResult* results) {
  std::printf("--- %s (%d GPUs) ---\n", title, num_gpus);
  Table table({"model", "DeepSpeed (h)", "FasterMoE (h)", "FlexMoE (h)",
               "vs DS ours", "vs DS paper", "vs FasterMoE ours",
               "vs FasterMoE paper"});
  for (int i = 0; i < n; ++i) {
    const GridCellResult* row = results + 3 * i;
    for (int s = 0; s < 3; ++s) {
      FLEXMOE_CHECK_MSG(row[s].status.ok(), row[s].status.ToString());
    }
    const double ds = row[0].report.hours_to_target;
    const double fm = row[1].report.hours_to_target;
    const double flex = row[2].report.hours_to_target;
    table.AddRow({rows[i].model, StrFormat("%.1f", ds), StrFormat("%.1f", fm),
                  StrFormat("%.1f", flex), FormatSpeedup(ds / flex),
                  FormatSpeedup(rows[i].vs_deepspeed),
                  FormatSpeedup(fm / flex),
                  FormatSpeedup(rows[i].vs_fastermoe)});
  }
  std::printf("%s\n", table.ToAscii().c_str());
}

int Run(const bench::CommonFlags& flags) {
  const bool quick = flags.quick;
  const int threads = flags.threads;
  const char* workload = flags.workload;
  bench::PrintHeader("Figure 5 — time to target quality",
                     "DeepSpeed / FasterMoE / FlexMoE on six models");

  // All 18 (panel x model x system) cells are independent; run them on the
  // grid runner and slice the results back into the two panels.
  std::vector<GridCell> cells;
  AddPanelCells(kPanelS, 3, 32, quick, workload, &cells);
  const size_t panel_l_offset = cells.size();
  AddPanelCells(kPanelL, 3, 64, quick, workload, &cells);
  const std::vector<GridCellResult> results =
      RunExperimentGrid(cells, threads);

  PrintPanel("Figure 5(a): X-MoE-S", kPanelS, 3, 32, results.data());
  PrintPanel("Figure 5(b): X-MoE-L", kPanelL, 3, 64,
             results.data() + panel_l_offset);
  std::printf(
      "shape check: FlexMoE fastest on every model; the FasterMoE gap\n"
      "widens on 64 GPUs where its global shadow synchronization hurts.\n");
  return 0;
}

}  // namespace
}  // namespace flexmoe

int main(int argc, char** argv) {
  return flexmoe::Run(flexmoe::bench::ParseCommonFlags(argc, argv));
}
