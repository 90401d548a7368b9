// Workload scenario suite: every system in the comparison crossed with the
// full scenario catalog (gate/logit_process.h), run on the experiment-grid
// thread pool. FlexMoE's claim is not one good workload — dynamic
// placement must beat the static layouts in EVERY regime expert popularity
// can take. The suite checks that differential (time-to-quality, plus
// balance against the imbalance-visible baselines) per scenario and exits
// non-zero if any regime breaks it.
//
// Flags (bench_common.h): --quick --threads N --pipeline-chunks K
//   --workload NAME   run only one scenario
//   --digests PATH    write per-cell metrics digests (golden record mode)

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "harness/golden.h"
#include "harness/grid_runner.h"
#include "util/string_util.h"
#include "util/table.h"

namespace flexmoe {
namespace {

constexpr const char* kSystems[4] = {"deepspeed", "fastermoe", "swipe",
                                     "flexmoe"};

ExperimentOptions SuiteCell(const std::string& scenario,
                            const std::string& system, bool quick) {
  ExperimentOptions o = WorkloadGoldenCell(scenario, system);
  if (!quick) {
    // Full scale: a longer horizon on more devices; scenario clocks grow
    // with it so each regime still expresses several times per run.
    o.num_gpus = 16;
    o.measure_steps = 120;
    o.warmup_steps = 20;
    o.workload.scenario.shift_step = 60;
    o.workload.scenario.diurnal_period = 48.0;
    o.workload.scenario.tenant_block_steps = 20;
  }
  return o;
}

/// Effective throughput: tokens/sec discounted by the fraction of tokens
/// that retain full training value (DeepSpeed drops at capacity, SWIPE
/// re-routes to wrong experts). The fair cross-system rate.
double EffectiveThroughput(const ExperimentReport& r) {
  return r.throughput_tokens_per_sec * r.mean_effective_token_rate;
}

int Run(const bench::CommonFlags& flags) {
  const bool quick = flags.quick;
  const int threads = flags.threads;

  bench::PrintHeader("Workload scenario suite — all systems x catalog",
                     "dynamic placement must win in every popularity regime");

  // Unlike the figure benches, an absent --workload means "all scenarios".
  std::vector<std::string> scenarios;
  for (const std::string& name : ScenarioCatalog()) {
    if (!flags.workload_given || name == flags.workload) {
      scenarios.push_back(name);
    }
  }

  std::vector<GridCell> cells;
  for (const std::string& scenario : scenarios) {
    for (const char* system : kSystems) {
      GridCell cell;
      cell.label = StrFormat("%s/%s", scenario.c_str(), system);
      cell.options = SuiteCell(scenario, system, quick);
      cell.options.pipeline_chunks = flags.pipeline_chunks;
      cells.push_back(std::move(cell));
    }
  }
  const std::vector<GridCellResult> results =
      RunExperimentGrid(cells, threads);

  std::vector<MetricsDigest> digests;
  int violations = 0;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const GridCellResult* row = results.data() + 4 * i;
    for (int s = 0; s < 4; ++s) {
      FLEXMOE_CHECK_MSG(row[s].status.ok(), row[s].status.ToString());
      digests.push_back(
          DigestFromReport(row[s].label, row[s].report));
    }
    const ExperimentReport& ds = row[0].report;
    const ExperimentReport& fm = row[1].report;
    const ExperimentReport& sw = row[2].report;
    const ExperimentReport& flex = row[3].report;

    Table table({"system", "step (ms)", "balance", "eff. Mtok/s",
                 "token eff", "hours to target"});
    for (int s = 0; s < 4; ++s) {
      const ExperimentReport& r = row[s].report;
      table.AddRow({r.system, StrFormat("%.2f", r.mean_step_seconds * 1e3),
                    StrFormat("%.2f", r.mean_balance_ratio),
                    StrFormat("%.2f", EffectiveThroughput(r) / 1e6),
                    StrFormat("%.3f", r.mean_token_efficiency),
                    StrFormat("%.2f", r.hours_to_target)});
    }
    std::printf("--- %s ---\n%s", scenarios[i].c_str(),
                table.ToAscii().c_str());

    // The differential: FlexMoE reaches quality first against every
    // baseline, sustains the highest effective token rate, and holds
    // better balance than the baselines that let imbalance show (SWIPE
    // buys balance=1 by re-routing tokens away from their experts, which
    // the effective-rate and time-to-quality columns charge it for).
    bool ok = true;
    for (const ExperimentReport* b : {&ds, &fm, &sw}) {
      if (flex.hours_to_target >= b->hours_to_target) ok = false;
      if (EffectiveThroughput(flex) <= EffectiveThroughput(*b)) ok = false;
    }
    if (flex.mean_balance_ratio >= ds.mean_balance_ratio) ok = false;
    if (flex.mean_balance_ratio >= fm.mean_balance_ratio) ok = false;
    std::printf("  differential: %s\n\n", ok ? "FlexMoE wins" : "VIOLATED");
    if (!ok) ++violations;
  }

  // Auto-K differential (DESIGN.md §12): FlexMoE with planned per-layer
  // chunk depth must match or beat the best static depth in every regime —
  // otherwise the overhead-honest model is mis-ranking the candidates
  // somewhere and auto-K is a regression, not a feature.
  constexpr int kDepths[5] = {0, 1, 2, 4, 8};  // 0 = auto
  std::vector<GridCell> autok_cells;
  for (const std::string& scenario : scenarios) {
    for (const int depth : kDepths) {
      GridCell cell;
      cell.label = depth == 0
                       ? StrFormat("%s/flexmoe/K=auto", scenario.c_str())
                       : StrFormat("%s/flexmoe/K=%d", scenario.c_str(), depth);
      cell.options = SuiteCell(scenario, "flexmoe", quick);
      cell.options.pipeline_chunks = depth;
      autok_cells.push_back(std::move(cell));
    }
  }
  const std::vector<GridCellResult> autok_results =
      RunExperimentGrid(autok_cells, threads);
  int autok_violations = 0;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const GridCellResult* row = autok_results.data() + 5 * i;
    for (int d = 0; d < 5; ++d) {
      FLEXMOE_CHECK_MSG(row[d].status.ok(), row[d].status.ToString());
    }
    const double auto_wall = row[0].report.mean_step_seconds;
    double best_static = row[1].report.mean_step_seconds;
    int best_depth = kDepths[1];
    for (int d = 2; d < 5; ++d) {
      if (row[d].report.mean_step_seconds < best_static) {
        best_static = row[d].report.mean_step_seconds;
        best_depth = kDepths[d];
      }
    }
    const bool ok = auto_wall <= best_static * (1.0 + 1e-9);
    std::printf(
        "--- %s auto-K: %.3f ms vs best static K=%d %.3f ms -> %s\n",
        scenarios[i].c_str(), auto_wall * 1e3, best_depth, best_static * 1e3,
        ok ? "auto wins/ties" : "VIOLATED");
    if (!ok) ++autok_violations;
  }
  std::printf("\n");
  if (autok_violations > 0) {
    std::fprintf(stderr,
                 "FAIL: auto-K lost to a static chunk depth in %d "
                 "scenario(s)\n",
                 autok_violations);
    return 1;
  }

  if (flags.digests[0] != '\0') {
    const Status s = SaveDigests(digests, flags.digests);
    FLEXMOE_CHECK_MSG(s.ok(), s.ToString());
    std::printf("wrote %zu digests to %s\n", digests.size(), flags.digests);
  }
  if (violations > 0) {
    std::fprintf(stderr,
                 "FAIL: FlexMoE differential violated in %d scenario(s)\n",
                 violations);
    return 1;
  }
  std::printf("all %zu scenarios: FlexMoE beats every static baseline on "
              "time-to-quality and effective throughput.\n",
              scenarios.size());
  return 0;
}

}  // namespace
}  // namespace flexmoe

int main(int argc, char** argv) {
  return flexmoe::Run(flexmoe::bench::ParseCommonFlags(argc, argv));
}
