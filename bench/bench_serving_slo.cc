// Latency-SLO serving comparison: every system in the comparison crossed
// with the serving scenario set, run on the experiment-grid thread pool.
// The serving claim mirrors the training one (DESIGN.md Section 8): under
// skewed, time-varying load a static layout either recirculates overflow
// (DeepSpeed capacity, SWIPE's cap) or re-broadcasts shadows every batch
// (FasterMoE), inflating tail latency — FlexMoE re-places experts once and
// serves balanced batches.
//
// Two suites run by default (--size-mix selects one):
//  * FIXED sizes — the legacy single-size stream; the differential is SLO
//    attainment (honest, arrived-denominated) and p99 where skew creates
//    real queueing: in the bursty and multi-tenant regimes FlexMoE must
//    attain STRICTLY more with no worse p99 than every static baseline
//    (when both attain 100%, a STRICTLY lower p99 instead).
//  * HEAVY sizes — the chat/batch-inference mix with deadline-aware
//    shedding (ServingSizeMixCell): request sizes span the batch token
//    cap, so admission chunks and sheds; the differential is GOODPUT
//    (SLO-met tokens/sec over arrived traffic), strict in the same two
//    regimes. Every cell also audits the admission ledger: arrived ==
//    completed + shed + queued, i.e. nothing is silently dropped.
//
// Flags (bench_common.h): --quick --threads N --pipeline-chunks K
//   --workload NAME   run only one scenario
//   --size-mix NAME   fixed | heavy | both (default both)
//   --admission P     edf | sjf for the heavy suite (default edf)
//   --digests PATH    write per-cell serving digests (golden record mode)
//   --trace-out / --metrics-out / --decisions-out
//                     additionally run the traced headline cell
//                     (multi-tenant x flexmoe, fixed sizes) with
//                     observability on, export the artifacts, and print
//                     the policy-adoption lag behind each tenant switch

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "harness/golden.h"
#include "harness/grid_runner.h"
#include "obs/decision_log.h"
#include "util/string_util.h"
#include "util/table.h"

namespace flexmoe {
namespace {

constexpr const char* kSystems[4] = {"deepspeed", "fastermoe", "swipe",
                                     "flexmoe"};
constexpr const char* kScenarios[4] = {"pretrain-steady", "bursty", "diurnal",
                                       "multi-tenant"};
/// Scenarios where the differential is a hard assertion.
bool IsStrictScenario(const std::string& s) {
  return s == "bursty" || s == "multi-tenant";
}

void StretchClocks(ExperimentOptions* o) {
  // Full scale: twice the horizon; scenario clocks stretch with it so
  // each regime still expresses several times per run.
  o->measure_steps = 120;
  o->warmup_steps = 20;
  o->workload.scenario.shift_step = 60;
  o->workload.scenario.diurnal_period = 40.0;
  o->workload.scenario.tenant_block_steps = 20;
}

ExperimentOptions ServingCell(const std::string& scenario,
                              const std::string& system, bool heavy,
                              const std::string& admission, bool quick) {
  ExperimentOptions o = heavy ? ServingSizeMixCell(scenario, system, admission)
                              : ServingGoldenCell(scenario, system);
  if (!quick) StretchClocks(&o);
  return o;
}

/// The conservation audit every cell must pass: nothing that arrived was
/// silently dropped — it completed, was counted shed, or is still queued.
bool LedgerHolds(const ServingReport& r) {
  return r.requests_arrived ==
             r.requests_completed + r.requests_shed +
                 r.requests_queued_at_end &&
         r.tokens_arrived == r.tokens_completed + r.tokens_shed +
                                 r.tokens_queued_at_end;
}

/// Runs one suite (fixed or heavy sizes) over `scenarios`; returns the
/// number of strict-scenario differential violations.
int RunSuite(const std::vector<std::string>& scenarios, bool heavy,
             const bench::CommonFlags& flags,
             std::vector<MetricsDigest>* digests) {
  std::vector<GridCell> cells;
  for (const std::string& scenario : scenarios) {
    for (const char* system : kSystems) {
      GridCell cell;
      cell.label = StrFormat("serve%s/%s/%s", heavy ? "-sized" : "",
                             scenario.c_str(), system);
      cell.options =
          ServingCell(scenario, system, heavy, flags.admission, flags.quick);
      cell.options.pipeline_chunks = flags.pipeline_chunks;
      cells.push_back(std::move(cell));
    }
  }
  const std::vector<GridCellResult> results =
      RunExperimentGrid(cells, flags.threads);

  std::printf("=== %s sizes (%s admission) ===\n",
              heavy ? "heavy-tailed" : "fixed",
              heavy ? flags.admission : "edf");
  int violations = 0;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const GridCellResult* row = results.data() + 4 * i;
    for (int s = 0; s < 4; ++s) {
      FLEXMOE_CHECK_MSG(row[s].status.ok(), row[s].status.ToString());
      FLEXMOE_CHECK_MSG(LedgerHolds(row[s].report.serve),
                        StrFormat("%s: admission ledger does not conserve",
                                  row[s].label.c_str()));
      digests->push_back(DigestFromReport(row[s].label, row[s].report));
    }
    const ServingReport& flex = row[3].report.serve;

    Table table({"system", "attain %", "goodput Mtok/s", "shed", "p50 (ms)",
                 "p99 (ms)", "recirc Mtok", "served Mtok/s"});
    for (int s = 0; s < 4; ++s) {
      const ServingReport& r = row[s].report.serve;
      table.AddRow({row[s].report.system,
                    StrFormat("%.1f", 100.0 * r.slo_attainment),
                    StrFormat("%.2f", r.goodput_tokens_per_sec / 1e6),
                    StrFormat("%lld", static_cast<long long>(r.requests_shed)),
                    StrFormat("%.2f", r.p50_latency_seconds * 1e3),
                    StrFormat("%.2f", r.p99_latency_seconds * 1e3),
                    StrFormat("%.2f",
                              static_cast<double>(r.tokens_recirculated) / 1e6),
                    StrFormat("%.2f", r.served_tokens_per_sec / 1e6)});
    }
    std::printf("--- %s ---\n%s", scenarios[i].c_str(),
                table.ToAscii().c_str());

    bool ok = true;
    for (int s = 0; s < 3; ++s) {
      const ServingReport& base = row[s].report.serve;
      if (heavy) {
        // The sized suite's claim is goodput over arrived traffic.
        if (flex.goodput_tokens_per_sec <= base.goodput_tokens_per_sec) {
          ok = false;
        }
      } else if (base.slo_attainment == 1.0 &&
                 flex.slo_attainment == 1.0) {
        // Both at full attainment: attainment cannot separate them, so
        // the win must be a strictly lower p99.
        if (flex.p99_latency_seconds >= base.p99_latency_seconds) ok = false;
      } else {
        if (flex.slo_attainment <= base.slo_attainment) ok = false;
        if (flex.p99_latency_seconds > base.p99_latency_seconds) ok = false;
      }
    }
    if (IsStrictScenario(scenarios[i])) {
      std::printf("  differential: %s\n\n", ok ? "FlexMoE wins" : "VIOLATED");
      if (!ok) ++violations;
    } else {
      std::printf("  differential (informational): %s\n\n",
                  ok ? "FlexMoE wins" : "not strict here");
    }
  }
  return violations;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::string contents;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  return contents;
}

/// The traced headline run behind --trace-out / --metrics-out /
/// --decisions-out: the multi-tenant FlexMoE serving cell with
/// observability enabled. The decision audit turns "the planner lags
/// tenant switches" into a number: every tenant-block boundary is a
/// switch step, and PolicyAdoptionLags reports how many batches passed
/// before a plan was adopted.
int RunTracedHeadline(const bench::CommonFlags& flags) {
  ExperimentOptions o = ServingCell("multi-tenant", "flexmoe",
                                    /*heavy=*/false, flags.admission,
                                    flags.quick);
  o.pipeline_chunks = flags.pipeline_chunks;
  o.observability.enabled = true;
  o.observability.trace_out = flags.trace_out;
  o.observability.metrics_out = flags.metrics_out;
  o.observability.decisions_out = flags.decisions_out;

  std::printf("=== traced headline: serve/multi-tenant/flexmoe ===\n");
  const Result<ExperimentReport> run = RunExperiment(o);
  FLEXMOE_CHECK_MSG(run.ok(), run.status().ToString());
  const ServingReport& r = run->serve;
  std::printf("attain %.1f%%  p99 %.2f ms  shed %lld  (%d batches)\n",
              100.0 * r.slo_attainment, r.p99_latency_seconds * 1e3,
              static_cast<long long>(r.requests_shed), o.measure_steps);
  if (flags.trace_out[0] != '\0') {
    std::printf("wrote Chrome trace to %s\n", flags.trace_out);
  }
  if (flags.metrics_out[0] != '\0') {
    std::printf("wrote metrics snapshot to %s\n", flags.metrics_out);
  }
  if (flags.decisions_out[0] == '\0') return 0;
  std::printf("wrote decision audit to %s\n", flags.decisions_out);

  // Policy lag behind tenant switches, from the exported audit. Serving
  // runs exactly measure_steps microbatches (no warmup prefix), so the
  // hot tenant rotates at every multiple of tenant_block_steps.
  const Result<std::string> jsonl = ReadWholeFile(flags.decisions_out);
  FLEXMOE_CHECK_MSG(jsonl.ok(), jsonl.status().ToString());
  const Result<std::vector<obs::PolicyDecisionRecord>> records =
      obs::ParseDecisionLog(*jsonl);
  FLEXMOE_CHECK_MSG(records.ok(), records.status().ToString());
  std::vector<int64_t> switches;
  const int block = o.workload.scenario.tenant_block_steps;
  for (int s = block; s < o.measure_steps; s += block) {
    switches.push_back(s);
  }
  const std::vector<int64_t> lags =
      obs::PolicyAdoptionLags(*records, switches);
  std::printf("policy adoption lag per tenant switch (batches):\n");
  for (size_t i = 0; i < switches.size(); ++i) {
    if (lags[i] < 0) {
      std::printf("  switch @%lld: no plan adopted before next switch\n",
                  static_cast<long long>(switches[i]));
    } else {
      std::printf("  switch @%lld: %lld\n",
                  static_cast<long long>(switches[i]),
                  static_cast<long long>(lags[i]));
    }
  }
  std::printf("\n");
  return 0;
}

int Run(const bench::CommonFlags& flags) {
  const std::string mix = flags.size_mix;

  bench::PrintHeader("Serving SLO suite — all systems x serving scenarios",
                     "dynamic placement must win the tail where skew queues");

  std::vector<std::string> scenarios;
  for (const char* name : kScenarios) {
    if (!flags.workload_given || std::string(name) == flags.workload) {
      scenarios.push_back(name);
    }
  }
  if (scenarios.empty()) {
    // A catalog scenario the serving suite does not run (finetune-shift).
    std::fprintf(stderr, "usage: --workload '%s' is not a serving scenario\n",
                 flags.workload);
    return 2;
  }

  if (flags.ObservabilityRequested()) {
    const int rc = RunTracedHeadline(flags);
    if (rc != 0) return rc;
  }

  std::vector<MetricsDigest> digests;
  int violations = 0;
  if (mix != "heavy") {
    violations += RunSuite(scenarios, /*heavy=*/false, flags, &digests);
  }
  if (mix != "fixed") {
    violations += RunSuite(scenarios, /*heavy=*/true, flags, &digests);
  }

  if (flags.digests[0] != '\0') {
    const Status s = SaveDigests(digests, flags.digests);
    FLEXMOE_CHECK_MSG(s.ok(), s.ToString());
    std::printf("wrote %zu digests to %s\n", digests.size(), flags.digests);
  }
  if (violations > 0) {
    std::fprintf(stderr,
                 "FAIL: serving differential violated in %d suite-scenario"
                 " pair(s)\n",
                 violations);
    return 1;
  }
  std::printf(
      "bursty + multi-tenant: FlexMoE beats every static baseline — "
      "attainment/p99 at fixed sizes, goodput under the heavy-tailed mix.\n");
  return 0;
}

}  // namespace
}  // namespace flexmoe

int main(int argc, char** argv) {
  return flexmoe::Run(flexmoe::bench::ParseCommonFlags(argc, argv));
}
