// End-to-end observability tests. A traced multi-tenant FlexMoE serving
// run must export a structurally valid, non-empty Chrome trace, a metrics
// snapshot, and a decision audit from which the
// policy-lag-behind-tenant-switch is computable, and two runs at the same
// seed must export byte-identical artifacts. A disabled handle must cost
// nothing: the same heap allocations and the same metrics as no handle.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "allocation_count.h"
#include "core/flexmoe.h"
#include "gate/trace_generator.h"
#include "harness/experiment.h"
#include "harness/golden.h"
#include "obs/decision_log.h"
#include "obs/observability.h"
#include "test_env.h"

namespace flexmoe {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << "missing artifact " << path;
  if (f == nullptr) return "";
  std::string contents;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  return contents;
}

/// Minimal structural JSON check: non-empty, object-shaped, braces and
/// brackets balance outside string literals. Catches truncated or
/// interleaved output without needing a JSON library.
bool JsonBalances(const std::string& s) {
  if (s.empty() || s[0] != '{') return false;
  int depth = 0;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default:
        break;
    }
  }
  return depth == 0 && !in_string;
}

struct Artifacts {
  std::string trace;
  std::string metrics;
  std::string decisions;
};

/// The acceptance cell: multi-tenant x flexmoe serving (16 GPUs, 60
/// batches, tenant switches every 10). `tag` keeps the two same-seed runs'
/// files apart.
Artifacts RunTraced(const std::string& tag) {
  ExperimentOptions o = ServingGoldenCell("multi-tenant", "flexmoe");
  const std::string dir = ::testing::TempDir();
  o.observability.enabled = true;
  o.observability.trace_out = dir + "obs_it_" + tag + "_trace.json";
  o.observability.metrics_out = dir + "obs_it_" + tag + "_metrics.json";
  o.observability.decisions_out = dir + "obs_it_" + tag + "_decisions.jsonl";

  const Result<ExperimentReport> report = RunExperiment(o);
  EXPECT_TRUE(report.ok()) << report.status().ToString();

  Artifacts a;
  a.trace = ReadWholeFile(o.observability.trace_out);
  a.metrics = ReadWholeFile(o.observability.metrics_out);
  a.decisions = ReadWholeFile(o.observability.decisions_out);
  std::remove(o.observability.trace_out.c_str());
  std::remove(o.observability.metrics_out.c_str());
  std::remove(o.observability.decisions_out.c_str());
  return a;
}

TEST(ObservabilityIntegrationTest, TracedMultiTenantServingRun) {
  const Artifacts run1 = RunTraced("a");

  // --- Chrome trace: valid, non-empty, the expected lanes and spans -----
  ASSERT_FALSE(run1.trace.empty());
  EXPECT_TRUE(JsonBalances(run1.trace));
  EXPECT_NE(run1.trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(run1.trace.find("\"thread_name\""), std::string::npos);
  // Serving-lane batching, per-GPU forward phases, and policy activity
  // all present.
  EXPECT_NE(run1.trace.find("serve_batch"), std::string::npos);
  EXPECT_NE(run1.trace.find("expert_compute"), std::string::npos);
  EXPECT_NE(run1.trace.find("dispatch"), std::string::npos);
  EXPECT_NE(run1.trace.find("policy_decision"), std::string::npos);
  // The ring never wrapped at this scale.
  EXPECT_NE(run1.trace.find("\"dropped_events\":0"), std::string::npos);

  // --- Metrics snapshot: valid and carrying serving + policy counters ---
  ASSERT_FALSE(run1.metrics.empty());
  EXPECT_TRUE(JsonBalances(run1.metrics));
  EXPECT_NE(run1.metrics.find("serve.batches"), std::string::npos);
  EXPECT_NE(run1.metrics.find("policy.invocations"), std::string::npos);
  EXPECT_NE(run1.metrics.find("serve.latency_seconds"), std::string::npos);

  // --- Decision audit: parses, and the policy lag is computable ---------
  ASSERT_FALSE(run1.decisions.empty());
  const Result<std::vector<obs::PolicyDecisionRecord>> records =
      obs::ParseDecisionLog(run1.decisions);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_FALSE(records->empty());
  for (const obs::PolicyDecisionRecord& r : *records) {
    EXPECT_GE(r.step, 0);
    EXPECT_LT(r.step, 60);
    EXPECT_GE(r.candidates_evaluated, 0);
  }
  // Tenant switches: every tenant_block_steps (10) microbatches. The lag
  // behind each switch is well-defined: -1 (no adoption before the next
  // switch) or within the 10-step window.
  const std::vector<int64_t> switches = {10, 20, 30, 40, 50};
  const std::vector<int64_t> lags =
      obs::PolicyAdoptionLags(*records, switches);
  ASSERT_EQ(lags.size(), switches.size());
  bool any_adoption = false;
  for (const int64_t lag : lags) {
    EXPECT_GE(lag, -1);
    EXPECT_LT(lag, 10);
    any_adoption = any_adoption || lag >= 0;
  }
  // A multi-tenant FlexMoE run re-places experts as the hot tenant moves;
  // a log in which no switch window ever adopts a plan means the audit
  // (or the scheduler) broke.
  EXPECT_TRUE(any_adoption);

  // --- Byte-determinism: same seed, same bytes --------------------------
  const Artifacts run2 = RunTraced("b");
  EXPECT_EQ(run1.trace, run2.trace);
  EXPECT_EQ(run1.metrics, run2.metrics);
  EXPECT_EQ(run1.decisions, run2.decisions);
}

TEST(ObservabilityIntegrationTest, DisabledRunWritesNothing) {
  ExperimentOptions o = ServingGoldenCell("multi-tenant", "flexmoe");
  o.measure_steps = 8;
  o.warmup_steps = 2;
  // Disabled observability with no paths: the run must succeed and leave
  // no artifacts behind (the default configuration every bench and test
  // in the repo runs under).
  const Result<ExperimentReport> report = RunExperiment(o);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->serving);
}

/// Every StepMetrics field, for exact comparison.
auto Fields(const StepMetrics& m) {
  return std::make_tuple(
      m.step, m.step_seconds, m.a2a_seconds, m.compute_seconds,
      m.sync_seconds, m.non_moe_seconds, m.dp_sync_seconds,
      m.adjust_block_seconds, m.balance_ratio, m.token_efficiency,
      m.expert_efficiency, m.gpu_utilization, m.tokens_total,
      m.tokens_dropped, m.tokens_recirculated, m.ops_applied,
      m.ops_launched, m.recovery_seconds, m.faults_applied, m.degraded);
}

struct CountedRun {
  int64_t allocations = 0;
  std::vector<StepMetrics> metrics;
};

/// 64 FlexMoE training steps (8 GPUs, 16 experts, 2 layers) over a
/// pre-generated cycle of 8 routing steps, with `obs` installed when
/// non-null. Counts the heap allocations the steps make.
CountedRun RunCountedSteps(obs::Observability* obs) {
  const TestEnv env = TestEnv::Make(8);
  FlexMoEOptions o;
  o.model = GptMoES();
  o.model.num_experts = 16;
  o.model.num_moe_layers = 2;
  o.model.tokens_per_gpu = 2048;
  o.num_gpus = 8;
  auto sys = *FlexMoESystem::Create(o, env.topo.get(), &env.profile);
  if (obs != nullptr) sys->SetObservability(obs);

  TraceGeneratorOptions t;
  t.num_experts = o.model.num_experts;
  t.num_moe_layers = o.model.num_moe_layers;
  t.num_gpus = o.num_gpus;
  t.tokens_per_gpu = o.model.tokens_per_gpu;
  t.seed = 7;
  TraceGenerator gen = *TraceGenerator::Create(t);
  std::vector<std::vector<Assignment>> steps;
  for (int i = 0; i < 8; ++i) steps.push_back(gen.Step());

  CountedRun run;
  run.metrics.reserve(64);
  const int64_t before = AllocationCount();
  for (size_t i = 0; i < 64; ++i) {
    run.metrics.push_back(sys->RunStep(steps[i % steps.size()]));
  }
  run.allocations = AllocationCount() - before;
  return run;
}

// The disabled path is the one every untraced run takes, so it must do no
// work at all: exactly the allocations and metrics of a run with no handle
// installed, and nothing recorded into the handle. Building the handle is
// cheap too, since every RunExperiment cell builds one.
TEST(ObservabilityIntegrationTest, DisabledHandleCostsNoAllocations) {
  const CountedRun bare = RunCountedSteps(nullptr);
  const int64_t bytes_before = AllocatedBytes();
  obs::Observability disabled(obs::ObservabilityOptions{});
  EXPECT_LT(AllocatedBytes() - bytes_before, 64 * 1024);
  ASSERT_FALSE(disabled.enabled());
  const CountedRun with_handle = RunCountedSteps(&disabled);

  EXPECT_GT(bare.allocations, 0);  // the counter counts
  EXPECT_EQ(with_handle.allocations, bare.allocations);
  ASSERT_EQ(with_handle.metrics.size(), bare.metrics.size());
  for (size_t i = 0; i < bare.metrics.size(); ++i) {
    EXPECT_TRUE(Fields(with_handle.metrics[i]) == Fields(bare.metrics[i]))
        << "step " << i;
  }
  EXPECT_EQ(disabled.tracer().size(), 0u);
  EXPECT_TRUE(disabled.metrics().empty());
  EXPECT_EQ(disabled.decisions().size(), 0u);
}

// The first event reserves the ring; every later one, through a full ring
// and its overwrites, records without touching the heap.
TEST(ObservabilityIntegrationTest, TracerAllocatesOnlyForItsFirstEvent) {
  obs::Tracer tracer(1024);
  int64_t before = AllocationCount();
  tracer.Span("first", "test", 0, 0.0, 1.0);
  EXPECT_GT(AllocationCount(), before);
  before = AllocationCount();
  for (int i = 0; i < 3000; ++i) {
    tracer.Span("span", "test", i % 8, i, i + 0.5, "i", i);
    tracer.Instant("tick", "test", obs::kSimLane, i);
  }
  EXPECT_EQ(AllocationCount(), before);
  EXPECT_EQ(tracer.size(), 1024u);
  EXPECT_GT(tracer.dropped(), 0u);
}

}  // namespace
}  // namespace flexmoe
