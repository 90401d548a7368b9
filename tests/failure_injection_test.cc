// Failure injection: the systems must survive degenerate and adversarial
// workloads without crashing, losing tokens, or violating invariants.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/static_layout.h"
#include "core/flexmoe.h"
#include "elastic/recovery.h"
#include "harness/golden.h"
#include "test_env.h"

namespace flexmoe {
namespace {

ModelConfig TinyModel() {
  ModelConfig m = GptMoES();
  m.num_experts = 8;
  m.num_moe_layers = 2;
  m.tokens_per_gpu = 1024;
  return m;
}

std::vector<Assignment> MakeStep(const ModelConfig& m, int gpus,
                                 int64_t per_cell) {
  std::vector<Assignment> step;
  for (int l = 0; l < m.num_moe_layers; ++l) {
    Assignment a(m.num_experts, gpus);
    for (int e = 0; e < m.num_experts; ++e) {
      for (int g = 0; g < gpus; ++g) a.set(e, g, per_cell);
    }
    step.push_back(std::move(a));
  }
  return step;
}

class AllSystemsTest : public testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<MoESystem> MakeSystem(TestEnv* env, const ModelConfig& m) {
    const std::string name = GetParam();
    if (name == "flexmoe") {
      FlexMoEOptions o;
      o.model = m;
      o.num_gpus = env->topo->num_gpus();
      return *FlexMoESystem::Create(o, env->topo.get(), &env->profile);
    }
    StaticLayoutOptions o;
    o.model = m;
    o.num_gpus = env->topo->num_gpus();
    o.admission = *StaticAdmissionFor(name);
    return *StaticLayoutSystem::Create(o, env->topo.get(), &env->profile);
  }
};

TEST_P(AllSystemsTest, SurvivesEmptySteps) {
  TestEnv env = TestEnv::Make();
  const ModelConfig m = TinyModel();
  auto sys = MakeSystem(&env, m);
  // A step where the gate routed zero tokens everywhere (e.g. a pipeline
  // bubble): must not crash, divide by zero, or report nonsense.
  for (int s = 0; s < 3; ++s) {
    const StepMetrics metrics = sys->RunStep(MakeStep(m, 8, 0));
    EXPECT_GE(metrics.step_seconds, 0.0);
    EXPECT_EQ(metrics.tokens_dropped, 0);
    EXPECT_GE(metrics.balance_ratio, 1.0);
  }
}

TEST_P(AllSystemsTest, SurvivesSingleExpertConcentration) {
  TestEnv env = TestEnv::Make();
  const ModelConfig m = TinyModel();
  auto sys = MakeSystem(&env, m);
  // Every token to expert 0 — the most adversarial routing possible.
  std::vector<Assignment> step;
  for (int l = 0; l < m.num_moe_layers; ++l) {
    Assignment a(m.num_experts, 8);
    for (int g = 0; g < 8; ++g) a.set(0, g, 8192);
    step.push_back(std::move(a));
  }
  for (int s = 0; s < 5; ++s) {
    const StepMetrics metrics = sys->RunStep(step);
    EXPECT_GT(metrics.step_seconds, 0.0);
    EXPECT_GT(metrics.tokens_total, 0);
  }
}

TEST_P(AllSystemsTest, SurvivesAlternatingExtremes) {
  TestEnv env = TestEnv::Make();
  const ModelConfig m = TinyModel();
  auto sys = MakeSystem(&env, m);
  // The workload flips between two opposite concentrations every step —
  // the worst case for any reactive placement policy.
  for (int s = 0; s < 12; ++s) {
    std::vector<Assignment> step;
    for (int l = 0; l < m.num_moe_layers; ++l) {
      Assignment a(m.num_experts, 8);
      const int hot = (s % 2 == 0) ? 0 : m.num_experts - 1;
      for (int g = 0; g < 8; ++g) {
        a.set(hot, g, 4000);
        a.set((hot + 3) % m.num_experts, g, 100);
      }
      step.push_back(std::move(a));
    }
    const StepMetrics metrics = sys->RunStep(step);
    EXPECT_GT(metrics.step_seconds, 0.0);
  }
}

TEST_P(AllSystemsTest, RejectsWrongLayerCount) {
  TestEnv env = TestEnv::Make();
  const ModelConfig m = TinyModel();
  auto sys = MakeSystem(&env, m);
  std::vector<Assignment> wrong = MakeStep(m, 8, 10);
  wrong.pop_back();  // one layer short
  EXPECT_DEATH(sys->RunStep(wrong), "");
}

// ---- FaultScheduler end-to-end: every system must absorb a mid-run GPU
// failure without crashing, losing tokens silently, or violating placement
// invariants (each expert keeps a live replica or the step reports
// degraded mode).

TEST_P(AllSystemsTest, SurvivesMidRunGpuFailure) {
  TestEnv env = TestEnv::Make();
  const ModelConfig m = TinyModel();
  auto sys = MakeSystem(&env, m);

  FaultPlanOptions fo;
  fo.scenario = "failstop";
  fo.num_gpus = 8;
  fo.fault_step = 5;
  fo.gpu = 2;
  ASSERT_TRUE(sys->InstallFaultPlan(*FaultPlan::Generate(fo)).ok());

  int64_t faults_seen = 0;
  for (int s = 0; s < 15; ++s) {
    const std::vector<Assignment> step = MakeStep(m, 8, 300);
    int64_t fed = 0;
    for (const Assignment& a : step) fed += a.Total();
    const StepMetrics metrics = sys->RunStep(step);
    faults_seen += metrics.faults_applied;
    ASSERT_GT(metrics.step_seconds, 0.0) << "step " << s;

    // Token accounting: every fed token is either processed or reported
    // dropped — nothing vanishes silently.
    ASSERT_EQ(metrics.tokens_total, fed) << "step " << s;
    if (s == 5) {
      // The failure step loses exactly the tokens resident on the dead
      // device (1/8 of each layer's batch), and must say so.
      EXPECT_EQ(metrics.tokens_dropped, fed / 8);
    }
    // Placement invariant: every expert keeps >= 1 live replica, or the
    // step is flagged degraded.
    const ClusterHealth* health = sys->cluster_health();
    ASSERT_NE(health, nullptr);
    if (s >= 5) {
      ASSERT_FALSE(health->alive(2));
    }
  }
  EXPECT_EQ(faults_seen, 1);
}

TEST_P(AllSystemsTest, SurvivesStragglerAndRecovery) {
  TestEnv env = TestEnv::Make();
  const ModelConfig m = TinyModel();
  auto sys = MakeSystem(&env, m);

  FaultPlanOptions fo;
  fo.scenario = "straggler";
  fo.num_gpus = 8;
  fo.fault_step = 3;
  fo.recover_step = 9;
  fo.gpu = 1;
  fo.compute_multiplier = 3.0;
  ASSERT_TRUE(sys->InstallFaultPlan(*FaultPlan::Generate(fo)).ok());

  std::vector<double> times;
  for (int s = 0; s < 14; ++s) {
    const StepMetrics metrics = sys->RunStep(MakeStep(m, 8, 300));
    ASSERT_GT(metrics.step_seconds, 0.0);
    ASSERT_EQ(metrics.tokens_dropped, 0);  // stragglers lose no tokens
    times.push_back(metrics.step_seconds);
  }
  // The straggler window must actually hurt: its peak step time exceeds
  // the healthy first steps.
  double before = times[1], during = 0.0;
  for (int s = 3; s < 9; ++s) during = std::max(during, times[s]);
  EXPECT_GT(during, before * 1.2);
}

TEST_P(AllSystemsTest, SurvivesChurn) {
  TestEnv env = TestEnv::Make();
  const ModelConfig m = TinyModel();
  auto sys = MakeSystem(&env, m);

  FaultPlanOptions fo;
  fo.scenario = "churn";
  fo.num_gpus = 8;
  fo.fault_step = 4;
  fo.recover_step = 10;
  fo.gpu = 7;
  ASSERT_TRUE(sys->InstallFaultPlan(*FaultPlan::Generate(fo)).ok());

  for (int s = 0; s < 16; ++s) {
    const StepMetrics metrics = sys->RunStep(MakeStep(m, 8, 300));
    ASSERT_GT(metrics.step_seconds, 0.0);
    // A graceful leave drains first: no tokens are ever lost.
    ASSERT_EQ(metrics.tokens_dropped, 0) << "step " << s;
  }
  const ClusterHealth* health = sys->cluster_health();
  ASSERT_NE(health, nullptr);
  EXPECT_TRUE(health->AllHealthy());  // the device rejoined
}

INSTANTIATE_TEST_SUITE_P(Systems, AllSystemsTest,
                         testing::Values("flexmoe", "deepspeed", "fastermoe",
                                         "swipe"));

TEST(FlexMoEFailureTest, DrainsDeadDeviceAndKeepsInvariants) {
  TestEnv env = TestEnv::Make();
  const ModelConfig m = TinyModel();
  FlexMoEOptions o;
  o.model = m;
  o.num_gpus = 8;
  auto sys = *FlexMoESystem::Create(o, env.topo.get(), &env.profile);

  FaultPlanOptions fo;
  fo.scenario = "failstop";
  fo.num_gpus = 8;
  fo.fault_step = 6;
  fo.gpu = 0;
  ASSERT_TRUE(sys->InstallFaultPlan(*FaultPlan::Generate(fo)).ok());

  for (int s = 0; s < 20; ++s) {
    const StepMetrics metrics = sys->RunStep(MakeStep(m, 8, 400));
    for (int l = 0; l < m.num_moe_layers; ++l) {
      ASSERT_TRUE(sys->live_placement(l).Validate().ok()) << "step " << s;
      ASSERT_TRUE(sys->target_placement(l).Validate().ok()) << "step " << s;
      if (s >= 6) {
        // Elastic drain: nothing may live on the dead device, and every
        // expert keeps a live replica (else the step must say degraded).
        ASSERT_EQ(sys->live_placement(l).UsedSlots(0), 0) << "step " << s;
        if (!metrics.degraded) {
          ASSERT_EQ(
              ExpertsWithoutLiveReplica(sys->live_placement(l),
                                        *sys->cluster_health()),
              0)
              << "step " << s;
        }
      }
    }
  }
  // FlexMoE recovers without a full restart: the only recovery charge is
  // re-materializing sole-replica experts.
  EXPECT_LT(sys->stats().TotalRecoverySeconds(), 10.0);
}

TEST(FlexMoEFailureTest, PlacementsSurviveAdversarialFlipFlop) {
  TestEnv env = TestEnv::Make();
  ModelConfig m = TinyModel();
  FlexMoEOptions o;
  o.model = m;
  o.num_gpus = 8;
  auto sys = *FlexMoESystem::Create(o, env.topo.get(), &env.profile);
  for (int s = 0; s < 30; ++s) {
    std::vector<Assignment> step;
    for (int l = 0; l < m.num_moe_layers; ++l) {
      Assignment a(m.num_experts, 8);
      const int hot = s % m.num_experts;  // rotating hot expert
      for (int g = 0; g < 8; ++g) a.set(hot, g, 3000);
      step.push_back(std::move(a));
    }
    sys->RunStep(step);
    for (int l = 0; l < m.num_moe_layers; ++l) {
      ASSERT_TRUE(sys->live_placement(l).Validate().ok()) << "step " << s;
      ASSERT_TRUE(sys->target_placement(l).Validate().ok()) << "step " << s;
    }
  }
}

// ---- failure during serving: a fail-stop mid-serving must not drop any
// admitted request — the faulted batch retries wholesale — and the
// SLO-violation accounting must match the committed golden digest
// (tests/goldens/serving_failstop.golden; regenerate after an intentional
// change with FLEXMOE_UPDATE_GOLDENS=1).

TEST(ServingFailureTest, FailStopDuringServingDropsNoAdmittedRequests) {
  const std::string golden_path =
      std::string(FLEXMOE_TEST_SOURCE_DIR) + "/goldens/serving_failstop.golden";
  const char* env = std::getenv("FLEXMOE_UPDATE_GOLDENS");
  const bool update = env != nullptr && env[0] != '\0' && env[0] != '0';

  std::vector<MetricsDigest> fresh;
  for (const char* system : {"deepspeed", "fastermoe", "swipe", "flexmoe"}) {
    ExperimentOptions o = ServingGoldenCell("bursty", system);
    o.faults.scenario = "failstop";
    o.faults.gpu = 2;
    o.faults.fault_step = 20;  // mid-serving: batch 20 of 60
    const auto report = RunExperiment(o);
    ASSERT_TRUE(report.ok()) << system << ": "
                             << report.status().ToString();
    const ServingReport& s = report->serve;
    // The fault actually hit a batch in flight...
    EXPECT_GE(s.failed_batches, 1) << system;
    EXPECT_EQ(report->faults_applied, 1) << system;
    // ...yet no admitted request was dropped: everything that arrived is
    // either completed, counted shed, or still queued, and the retried
    // batch's requests completed with their retry latency.
    EXPECT_EQ(s.requests_arrived,
              s.requests_completed + s.requests_shed +
                  s.requests_queued_at_end)
        << system;
    EXPECT_EQ(s.tokens_arrived,
              s.tokens_completed + s.tokens_shed + s.tokens_queued_at_end)
        << system;
    EXPECT_GT(s.requests_completed, 0) << system;
    fresh.push_back(DigestFromReport(
        std::string("serve-failstop/bursty/") + system, *report));
  }

  if (update) {
    ASSERT_TRUE(SaveDigests(fresh, golden_path).ok());
    GTEST_SKIP() << "goldens updated: " << golden_path;
  }
  const auto golden = LoadDigests(golden_path);
  ASSERT_TRUE(golden.ok()) << "missing golden " << golden_path
                           << " — run with FLEXMOE_UPDATE_GOLDENS=1";
  ASSERT_EQ(golden->size(), fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    const Status match = CompareDigests((*golden)[i], fresh[i], 1e-9);
    EXPECT_TRUE(match.ok()) << match.ToString();
  }
}

TEST(FlexMoEFailureTest, ZeroMigrationConfiguration) {
  TestEnv env = TestEnv::Make();
  FlexMoEOptions o;
  o.model = TinyModel();
  o.num_gpus = 8;
  o.scheduler.max_migrations = 0;  // Migrate disabled entirely
  auto sys = *FlexMoESystem::Create(o, env.topo.get(), &env.profile);
  std::vector<Assignment> step = MakeStep(o.model, 8, 500);
  for (int s = 0; s < 10; ++s) sys->RunStep(step);
  EXPECT_EQ(sys->stats().num_steps(), 10);
}

}  // namespace
}  // namespace flexmoe
