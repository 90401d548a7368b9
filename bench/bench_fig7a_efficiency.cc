// Figure 7(a): token efficiency x expert efficiency trajectories during
// training for four methods.
//   DeepSpeed: drops tokens (low token eff) and stays imbalanced within
//              capacity (low expert eff) — starts near (30%, 30%).
//   SWIPE:     strict balance via re-assignment — high expert eff, low
//              token eff.
//   FasterMoE: no drops (100% token eff) but coarse all-or-one shadowing —
//              middling expert eff.
//   FlexMoE:   100% token eff and near-ideal expert eff.
// As training progresses the balance loss tames the skew, so every method
// drifts toward the ideal corner.

#include <cstdio>

#include "bench/bench_common.h"
#include "harness/experiment.h"
#include "util/string_util.h"
#include "util/table.h"

namespace flexmoe {
namespace {

int Run(bool quick) {
  bench::PrintHeader(
      "Figure 7(a) — token efficiency vs expert efficiency trajectories",
      "DeepSpeed / SWIPE / FasterMoE / FlexMoE on a GPT-MoE trace");

  ModelConfig model = GptMoEL();
  const int num_gpus = 64;
  const int steps = quick ? 60 : 150;
  const int warm = quick ? 5 : 20;
  const char* systems[4] = {"deepspeed", "swipe", "fastermoe", "flexmoe"};

  Table table({"system", "phase", "token efficiency", "expert efficiency"});
  for (const char* system : systems) {
    ExperimentOptions o;
    o.system = system;
    o.model = model;
    o.num_gpus = num_gpus;
    o.balance_coef = 0.001;
    o.capacity_factor = 1.0;
    o.measure_steps = steps;
    o.warmup_steps = warm;
    o.seed = 43;
    const ExperimentReport report = *RunExperiment(o);
    const auto& all = report.stats.steps();

    auto window_mean = [&](size_t lo, size_t hi, auto get) {
      double acc = 0.0;
      for (size_t i = lo; i < hi; ++i) acc += get(all[i]);
      return acc / static_cast<double>(hi - lo);
    };
    const size_t n = all.size();
    const size_t early_hi = n / 4;
    const size_t late_lo = 3 * n / 4;
    table.AddRow(
        {report.system, "early",
         StrFormat("%.1f%%", 100.0 * window_mean(0, early_hi,
                                                 [](const StepMetrics& m) {
                                                   return m.token_efficiency;
                                                 })),
         StrFormat("%.1f%%", 100.0 * window_mean(0, early_hi,
                                                 [](const StepMetrics& m) {
                                                   return m.expert_efficiency;
                                                 }))});
    table.AddRow(
        {report.system, "late",
         StrFormat("%.1f%%", 100.0 * window_mean(late_lo, n,
                                                 [](const StepMetrics& m) {
                                                   return m.token_efficiency;
                                                 })),
         StrFormat("%.1f%%", 100.0 * window_mean(late_lo, n,
                                                 [](const StepMetrics& m) {
                                                   return m.expert_efficiency;
                                                 }))});
  }
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf(
      "shape check (paper quadrants): DeepSpeed low/low, SWIPE low-token/\n"
      "high-expert, FasterMoE 100%%-token/middling-expert, FlexMoE closest\n"
      "to the (100%%, 100%%) ideal; all methods improve late in training.\n");
  return 0;
}

}  // namespace
}  // namespace flexmoe

int main(int argc, char** argv) {
  return flexmoe::Run(flexmoe::bench::ParseCommonFlags(argc, argv).quick);
}
