// Figure 6(a): trigger-metric ablation — the paper's Max balance ratio
// (Eq. 6) against the Variance alternative. Max wins by 1.03x on average
// and up to 1.13x (Swin-MoE-L): because the layer finishes with its
// slowest GPU, the max is what actually predicts step time, while variance
// triggers adjustments that often return empty plans.

#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "harness/experiment.h"
#include "harness/reporters.h"
#include "util/string_util.h"
#include "util/table.h"

namespace flexmoe {
namespace {

constexpr struct {
  const char* model;
  double paper_max_over_variance;
} kPaper[] = {
    {"BERT-MoE-S", 0.95}, {"BERT-MoE-L", 1.08}, {"GPT-MoE-S", 0.99},
    {"GPT-MoE-L", 1.00},  {"Swin-MoE-S", 1.02}, {"Swin-MoE-L", 1.13},
};

int Run(bool quick) {
  bench::PrintHeader("Figure 6(a) — trigger metric: Max (ours) vs Variance",
                     "FlexMoE with Eq. 6 vs coefficient-of-variation trigger");

  Table table({"model", "Variance (h)", "Max/ours (h)", "Variance/Max ours",
               "paper"});
  double geo = 1.0;
  int n = 0;
  for (const auto& row : kPaper) {
    const ModelConfig model = *ModelByName(row.model);
    const int num_gpus = model.num_experts == 32 ? 32 : 64;
    ExperimentReport reports[2];
    for (int variant = 0; variant < 2; ++variant) {
      ExperimentOptions o;
      o.system = "flexmoe";
      o.model = model;
      o.num_gpus = num_gpus;
      o.balance_coef = 0.001;
      o.measure_steps = quick ? 40 : 60;
      o.warmup_steps = quick ? 5 : 20;
      o.seed = 37;
      if (variant == 0) {
        // Variance (CV) of per-GPU loads: the paper's alternative. A CV
        // threshold cannot be aligned with step time the way the max can —
        // the same CV arises from one straggler (bad) or mild spread
        // (harmless) — so it both over- and under-triggers.
        o.scheduler.metric = TriggerMetric::kVariance;
        o.scheduler.variance_threshold = 0.22;
      } else {
        o.scheduler.metric = TriggerMetric::kMaxRatio;
      }
      reports[variant] = *RunExperiment(o);
    }
    const double ratio =
        reports[0].hours_to_target / reports[1].hours_to_target;
    geo *= ratio;
    ++n;
    table.AddRow({row.model,
                  StrFormat("%.1f", reports[0].hours_to_target),
                  StrFormat("%.1f", reports[1].hours_to_target),
                  FormatSpeedup(ratio),
                  FormatSpeedup(row.paper_max_over_variance)});
  }
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf("geometric-mean advantage of Max: %.3fx (paper: 1.03x avg)\n",
              std::pow(geo, 1.0 / n));
  return 0;
}

}  // namespace
}  // namespace flexmoe

int main(int argc, char** argv) {
  return flexmoe::Run(flexmoe::bench::ParseCommonFlags(argc, argv).quick);
}
