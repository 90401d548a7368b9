// Figure 2: the balance-loss dilemma. Sweeping the balance-loss coefficient
// on Swin-MoE (no expert capacity, classic expert parallelism) trades GPU
// utilization against top-5 accuracy:
//   paper: coef 0     -> util 18.77%, acc@5 94.588
//          coef 0.05  -> util 63.30%, acc@5 93.981

#include <cstdio>

#include "bench/bench_common.h"
#include "harness/experiment.h"
#include "quality/targets.h"
#include "util/string_util.h"
#include "util/table.h"

namespace flexmoe {
namespace {

struct PaperRow {
  double coef;
  double util_pct;
  double acc5;
};

// Values read off the paper's Figure 2.
constexpr PaperRow kPaper[] = {
    {0.0, 18.77, 94.588},  {0.001, 26.28, 94.474}, {0.005, 35.93, 94.386},
    {0.01, 48.27, 94.190}, {0.05, 63.30, 93.981},
};

int Run(bool quick) {
  bench::PrintHeader(
      "Figure 2 — balance-loss coefficient vs GPU utilization & accuracy",
      "Swin-MoE, no capacity limit, expert parallelism");

  const ModelConfig model = SwinMoES();
  const ModelQuality quality = *QualityForModel(model);
  const ConvergenceModel acc5 =
      *ConvergenceModel::Create(quality.metrics.back());

  Table table({"coef", "GPU util (ours)", "GPU util (paper)",
               "acc@5 (ours)", "acc@5 (paper)"});
  for (const PaperRow& row : kPaper) {
    ExperimentOptions o;
    o.system = "deepspeed";
    o.model = model;
    o.num_gpus = 32;
    o.capacity_factor = 0.0;  // "we do not restrict the capacity"
    o.balance_coef = row.coef;
    // Utilization is read out after the balance-loss dynamics reach their
    // equilibrium (the generator's ramp has tau = 400 steps); the paper
    // averages over a full training run, far past that point.
    o.measure_steps = quick ? 80 : 900;
    o.warmup_steps = quick ? 40 : 500;
    o.seed = 17;
    const ExperimentReport report = *RunExperiment(o);

    // Quality at the full training budget under this coefficient; all
    // tokens processed (no capacity), so the effective-token rate is 1.
    const double acc = acc5.MetricAt(acc5.calibration().u_total_tokens,
                                     row.coef);
    table.AddRow({StrFormat("%.3f", row.coef),
                  StrFormat("%.2f%%", report.mean_gpu_utilization * 100.0),
                  StrFormat("%.2f%%", row.util_pct),
                  StrFormat("%.3f", acc), StrFormat("%.3f", row.acc5)});
  }
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf(
      "shape check: utilization rises with the coefficient while accuracy\n"
      "falls — the system-vs-statistical efficiency dilemma of Section 1.\n");
  return 0;
}

}  // namespace
}  // namespace flexmoe

int main(int argc, char** argv) {
  return flexmoe::Run(flexmoe::bench::ParseCommonFlags(argc, argv).quick);
}
