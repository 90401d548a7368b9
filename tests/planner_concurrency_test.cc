// Concurrent per-layer planning (DESIGN.md Section 6.4): FlexMoESystem
// plans a step's MoE layers on a planner helper beside the engine when the
// thread budget has a core free, and inline when it has none. Both paths
// must produce the same bytes — the digest, the decision audit and the
// metrics snapshot of whole experiment cells — and a system must tear down
// cleanly whether its helper never started or sits idle.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/flexmoe.h"
#include "gate/trace_generator.h"
#include "harness/experiment.h"
#include "harness/golden.h"
#include "test_env.h"
#include "util/thread_budget.h"

namespace flexmoe {
namespace {

/// Holds every hardware thread of the budget for its scope, so no helper
/// can start: every layer plans inline on the calling thread.
class ExhaustedBudget {
 public:
  ExhaustedBudget() { ClaimThreads(HardwareThreads()); }
  ~ExhaustedBudget() { ReleaseThreads(HardwareThreads()); }
  ExhaustedBudget(const ExhaustedBudget&) = delete;
  ExhaustedBudget& operator=(const ExhaustedBudget&) = delete;
};

std::string ReadAndRemove(const std::string& path) {
  std::string contents;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << "missing artifact " << path;
  if (f == nullptr) return contents;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  return contents;
}

struct CellBytes {
  std::string digest;
  std::string decisions;
  std::string metrics;
};

/// Runs one cell with observability on; `label` names the digest, `tag`
/// keeps the runs' artifact files apart.
CellBytes RunCell(ExperimentOptions o, const std::string& label,
                  const std::string& tag) {
  const std::string stem = ::testing::TempDir() + "planner_conc_" + tag;
  o.observability.enabled = true;
  o.observability.decisions_out = stem + "_decisions.jsonl";
  o.observability.metrics_out = stem + "_metrics.json";
  const Result<ExperimentReport> report = RunExperiment(o);
  CellBytes bytes;
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return bytes;
  bytes.digest = FormatDigest(DigestFromReport(label, *report));
  bytes.decisions = ReadAndRemove(o.observability.decisions_out);
  bytes.metrics = ReadAndRemove(o.observability.metrics_out);
  return bytes;
}

/// The cell run with the budget free (the helper plans beside the engine
/// when a core is free) and exhausted (every layer plans inline).
void ExpectSameBytesWithAndWithoutHelper(const ExperimentOptions& o,
                                         const std::string& label) {
  SCOPED_TRACE(label);
  const CellBytes free = RunCell(o, label, label + "_free");
  CellBytes inline_only;
  {
    ExhaustedBudget budget;
    inline_only = RunCell(o, label, label + "_inline");
  }
  EXPECT_FALSE(free.decisions.empty());
  EXPECT_EQ(free.digest, inline_only.digest);
  EXPECT_EQ(free.decisions, inline_only.decisions);
  EXPECT_EQ(free.metrics, inline_only.metrics);
}

TEST(PlannerConcurrencyTest, TrainingCell) {
  ExpectSameBytesWithAndWithoutHelper(
      WorkloadGoldenCell("bursty", "flexmoe"), "train-bursty");
}

TEST(PlannerConcurrencyTest, ServingCell) {
  ExpectSameBytesWithAndWithoutHelper(
      ServingGoldenCell("multi-tenant", "flexmoe"), "serve-multi-tenant");
}

// A straggler changes the cluster-health version, which the capacity
// trigger sees once per step and hands to every layer that plans.
TEST(PlannerConcurrencyTest, StragglerFaultCell) {
  ExperimentOptions o = WorkloadGoldenCell("pretrain-steady", "flexmoe");
  o.faults.scenario = "straggler";
  ExpectSameBytesWithAndWithoutHelper(o, "train-straggler");
}

TEST(PlannerConcurrencyTest, FourMoELayers) {
  ExperimentOptions o = WorkloadGoldenCell("diurnal", "flexmoe");
  o.model.num_moe_layers = 4;
  ExpectSameBytesWithAndWithoutHelper(o, "train-4-layers");
}

TEST(PlannerConcurrencyTest, AutoChunkDepth) {
  ExperimentOptions o = WorkloadGoldenCell("finetune-shift", "flexmoe");
  o.pipeline_chunks = 0;
  ExpectSameBytesWithAndWithoutHelper(o, "train-auto-k");
}

// ---- The system directly: helper start, results, teardown -----------------

struct SystemRig {
  TestEnv env = TestEnv::Make(8);
  std::vector<std::vector<Assignment>> steps;

  explicit SystemRig(int layers) {
    TraceGeneratorOptions t;
    t.num_experts = 16;
    t.num_moe_layers = layers;
    t.num_gpus = 8;
    t.tokens_per_gpu = 2048;
    t.seed = 11;
    TraceGenerator gen = *TraceGenerator::Create(t);
    for (int i = 0; i < 24; ++i) steps.push_back(gen.Step());
  }

  std::unique_ptr<FlexMoESystem> Make() const {
    FlexMoEOptions o;
    o.model = GptMoES();
    o.model.num_experts = 16;
    o.model.num_moe_layers = static_cast<int>(steps.front().size());
    o.model.tokens_per_gpu = 2048;
    o.num_gpus = 8;
    return *FlexMoESystem::Create(o, env.topo.get(), &env.profile);
  }
};

/// Threads the budget can still hand out (every claim is returned).
int FreeThreads() {
  int claimed = 0;
  while (TryClaimThread()) ++claimed;
  ReleaseThreads(claimed);
  return claimed;
}

struct SystemRun {
  std::vector<double> step_seconds;
  std::vector<int64_t> ops_applied;
  std::vector<std::string> targets;
  std::string decisions;
  bool helper_started = false;
};

SystemRun RunSystem(const SystemRig& rig) {
  auto sys = rig.Make();
  obs::ObservabilityOptions oo;
  oo.enabled = true;
  obs::Observability obs(oo);
  sys->SetObservability(&obs);
  SystemRun run;
  for (const std::vector<Assignment>& step : rig.steps) {
    const StepMetrics m = sys->RunStep(step);
    run.step_seconds.push_back(m.step_seconds);
    run.ops_applied.push_back(m.ops_applied);
  }
  for (size_t l = 0; l < rig.steps.front().size(); ++l) {
    run.targets.push_back(
        sys->target_placement(static_cast<int>(l)).ToString());
  }
  run.decisions = obs.DecisionsJsonl();
  run.helper_started = sys->planner_helper_started();
  return run;
}

TEST(PlannerConcurrencyTest, HelperPlansTheSameAsInline) {
  const SystemRig rig(/*layers=*/3);
  const int free_before = FreeThreads();
  const SystemRun with_helper = RunSystem(rig);
  // A single-threaded test process has a core free unless the machine
  // has one thread only.
  EXPECT_EQ(with_helper.helper_started, HardwareThreads() > 1);
  SystemRun inline_only;
  {
    ExhaustedBudget budget;
    inline_only = RunSystem(rig);
  }
  EXPECT_FALSE(inline_only.helper_started);
  EXPECT_FALSE(with_helper.decisions.empty());
  EXPECT_EQ(with_helper.step_seconds, inline_only.step_seconds);
  EXPECT_EQ(with_helper.ops_applied, inline_only.ops_applied);
  EXPECT_EQ(with_helper.targets, inline_only.targets);
  EXPECT_EQ(with_helper.decisions, inline_only.decisions);
  // The helper handed its core back when its system was destroyed.
  EXPECT_EQ(FreeThreads(), free_before);
}

TEST(PlannerConcurrencyTest, DestroysSystemWhoseHelperNeverStarted) {
  const SystemRig rig(/*layers=*/2);
  const int free_before = FreeThreads();
  {
    auto unused = rig.Make();  // no step: nothing to plan
    EXPECT_FALSE(unused->planner_helper_started());
  }
  {
    ExhaustedBudget budget;  // steps plan inline, never claiming a core
    auto sys = rig.Make();
    for (int i = 0; i < 4; ++i) sys->RunStep(rig.steps[static_cast<size_t>(i)]);
    EXPECT_FALSE(sys->planner_helper_started());
  }
  EXPECT_EQ(FreeThreads(), free_before);
}

TEST(PlannerConcurrencyTest, DestroysSystemWhoseHelperIsIdle) {
  if (HardwareThreads() < 2) GTEST_SKIP() << "no core for a helper";
  const SystemRig rig(/*layers=*/2);
  const int free_before = FreeThreads();
  {
    auto sys = rig.Make();
    for (int i = 0; i < 4; ++i) sys->RunStep(rig.steps[static_cast<size_t>(i)]);
    ASSERT_TRUE(sys->planner_helper_started());
    EXPECT_EQ(FreeThreads(), free_before - 1);  // the helper holds one
  }  // the helper waits for its next job here
  EXPECT_EQ(FreeThreads(), free_before);
}

}  // namespace
}  // namespace flexmoe
