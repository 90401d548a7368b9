// Elastic recovery: throughput dip and recovery time after a mid-run GPU
// fail-stop, FlexMoE vs. the static baselines.
//
// The same Expand/Shrink/Migrate machinery that adapts FlexMoE's placement
// to workload drift also absorbs cluster drift: after a fail-stop it drains
// the dead device (replicas cover most experts) and rebalances the
// survivors, so its steady-state step time returns to within ~10% of the
// pre-fault value. A static expert-parallel layout instead piles the dead
// device's experts onto one failover peer and pays a full checkpoint
// restart — its step time never recovers until a replacement joins.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "harness/experiment.h"
#include "util/string_util.h"
#include "util/table.h"

namespace flexmoe {
namespace {

struct RecoveryStats {
  double pre_fault_step = 0.0;     ///< mean step seconds before the fault
  double post_fault_steady = 0.0;  ///< mean over the trailing window
  double worst_step = 0.0;         ///< peak step time at/after the fault
  int recovery_steps = -1;         ///< steps until back within 10% of pre
  double recovery_seconds = 0.0;   ///< blocking fault-handling time
  int64_t tokens_lost = 0;
  bool recovered = false;
};

RecoveryStats Analyze(const TrainingStats& stats, int warmup, int fault_step,
                      int tail_window) {
  const std::vector<StepMetrics>& steps = stats.steps();
  RecoveryStats r;
  int n = 0;
  for (int s = warmup; s < fault_step; ++s) {
    r.pre_fault_step += steps[static_cast<size_t>(s)].step_seconds;
    ++n;
  }
  r.pre_fault_step /= std::max(1, n);

  const int total = static_cast<int>(steps.size());
  n = 0;
  for (int s = std::max(fault_step, total - tail_window); s < total; ++s) {
    r.post_fault_steady += steps[static_cast<size_t>(s)].step_seconds;
    ++n;
  }
  r.post_fault_steady /= std::max(1, n);

  const double threshold = r.pre_fault_step * 1.10;
  for (int s = fault_step; s < total; ++s) {
    const double t = steps[static_cast<size_t>(s)].step_seconds;
    r.worst_step = std::max(r.worst_step, t);
    r.tokens_lost += steps[static_cast<size_t>(s)].tokens_dropped;
    r.recovery_seconds += steps[static_cast<size_t>(s)].recovery_seconds;
    if (r.recovery_steps < 0 && t <= threshold) r.recovery_steps = s - fault_step;
  }
  r.recovered = r.recovery_steps >= 0 && r.post_fault_steady <= threshold;
  return r;
}

int Run(const bench::CommonFlags& flags) {
  const bool quick = flags.quick;
  bench::PrintHeader(
      "Elastic recovery — fail-stop at step N, all systems",
      "FlexMoE drains + rebalances; static layouts restart + fail over");

  const int num_gpus = quick ? 16 : 32;
  const int measure_steps = quick ? 60 : 120;
  const int fault_step = measure_steps / 3;
  const int warmup = quick ? 5 : 10;
  const int tail_window = measure_steps / 6;

  const char* systems[4] = {"flexmoe", "deepspeed", "fastermoe", "swipe"};
  Table table({"system", "pre-fault (ms)", "worst (ms)", "steady (ms)",
               "steady/pre", "recovered<=10%", "recovery steps",
               "restart cost (s)", "tokens lost"});
  std::printf("fail-stop: GPU dies at step %d of %d (%d GPUs)\n\n",
              fault_step, measure_steps, num_gpus);

  // Fail the device hosting the hottest expert at fault time — failures do
  // not pick convenient victims, and a static layout hurts most exactly
  // when the lost device carried real load. (Home GPU mapping mirrors
  // FixedExpertParallelPlacement's block distribution.)
  GpuId victim = 0;
  std::vector<RecoveryStats> all;
  for (const char* system : systems) {
    ExperimentOptions o;
    o.system = system;
    o.model = GptMoES();
    o.num_gpus = num_gpus;
    o.measure_steps = measure_steps;
    o.warmup_steps = warmup;
    o.seed = 17;
    o.balance_coef = 0.001;
    // Capacity dropping disabled: with a capacity factor, DeepSpeed-EP
    // masks the overloaded failover peer by silently clipping its tokens —
    // step time stays flat while ~30% of the batch vanishes. Recovery has
    // to show in step time, not in discarded work.
    o.capacity_factor = 0.0;
    // Mildly skewed workload (late-training regime): with the early
    // heavy-tail skew, one hot device dominates the step for every static
    // system and a dead device elsewhere hides in its shadow. The elastic
    // question — can the system re-absorb a lost device? — needs every
    // device to matter.
    o.use_trace_overrides = true;
    o.trace.num_experts = o.model.num_experts;
    o.trace.num_moe_layers = o.model.num_moe_layers;
    o.trace.num_gpus = num_gpus;
    o.trace.tokens_per_gpu = o.model.tokens_per_gpu;
    o.trace.top_k = o.model.top_k;
    o.trace.logit_sigma = 0.3;
    o.trace.seed = o.seed;
    o.faults.scenario = "failstop";
    o.faults.fault_step = fault_step;
    if (system == systems[0]) {
      TraceGenerator probe = *BuildTraceGenerator(o);
      std::vector<Assignment> at_fault;
      for (int s = 0; s <= fault_step; ++s) at_fault = probe.Step();
      int hottest = 0;
      for (int e = 1; e < o.model.num_experts; ++e) {
        if (at_fault[0].ExpertTotal(e) > at_fault[0].ExpertTotal(hottest)) {
          hottest = e;
        }
      }
      victim = static_cast<GpuId>(static_cast<int64_t>(hottest) * num_gpus /
                                  o.model.num_experts);
      std::printf("victim: GPU %d (home of hottest expert %d)\n\n", victim,
                  hottest);
    }
    o.faults.gpu = victim;
    const ExperimentReport report = *RunExperiment(o);
    const RecoveryStats r =
        Analyze(report.stats, warmup, fault_step, tail_window);
    all.push_back(r);

    table.AddRow(
        {report.system, StrFormat("%.1f", r.pre_fault_step * 1e3),
         StrFormat("%.1f", r.worst_step * 1e3),
         StrFormat("%.1f", r.post_fault_steady * 1e3),
         StrFormat("%.3f", r.post_fault_steady / r.pre_fault_step),
         r.recovered ? "yes" : "NO",
         r.recovery_steps < 0 ? std::string("never")
                              : StrFormat("%d", r.recovery_steps),
         StrFormat("%.1f", r.recovery_seconds),
         StrFormat("%lld", static_cast<long long>(r.tokens_lost))});

    std::printf(
        "{\"bench\": \"elastic_recovery\", \"system\": \"%s\", "
        "\"num_gpus\": %d, \"fault_step\": %d, "
        "\"pre_fault_step_sec\": %.6f, \"post_fault_steady_sec\": %.6f, "
        "\"recovered_within_10pct\": %s, \"recovery_steps\": %d, "
        "\"recovery_seconds\": %.3f, \"tokens_lost\": %lld}\n",
        report.system.c_str(), num_gpus, fault_step, r.pre_fault_step,
        r.post_fault_steady, r.recovered ? "true" : "false", r.recovery_steps,
        r.recovery_seconds,
        static_cast<long long>(r.tokens_lost));
  }

  std::printf("\n%s\n", table.ToAscii().c_str());
  // Dynamic placement absorbs the lost device; DeepSpeed's static layout
  // keeps the dead device's experts on one failover peer.
  auto row = [](const char* id, const RecoveryStats& r, bool want) {
    const double ratio = r.post_fault_steady / r.pre_fault_step;
    return bench::Claim{id, "-", StrFormat("steady/pre %.3f", ratio),
                        "measured", want ? "recovers within 10%" : "does not",
                        r.recovered == want, true};
  };
  const std::vector<bench::Claim> claims = {
      row("elastic.flexmoe-recovers", all[0], true),
      row("elastic.deepspeed-stays-degraded", all[1], false)};
  bench::PrintClaims(claims);
  return bench::FinishClaims(flags, claims);
}

}  // namespace
}  // namespace flexmoe

int main(int argc, char** argv) {
  return flexmoe::Run(flexmoe::bench::ParseCommonFlags(argc, argv));
}
