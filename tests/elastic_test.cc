// Tests for the elastic cluster subsystem: fault plans, the health
// registry, the step-driven fault scheduler, placement
// repair (drain / failover), workload re-sharding, migrate-away planning,
// and byte-for-byte replay determinism under a fixed seed.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "baselines/static_layout.h"
#include "core/flexmoe.h"
#include "core/policy_maker.h"
#include "core/scheduler.h"
#include "elastic/elastic_controller.h"
#include "elastic/fault_scheduler.h"
#include "elastic/recovery.h"
#include "gate/trace_generator.h"
#include "test_env.h"

namespace flexmoe {
namespace {

// ---- FaultPlan -------------------------------------------------------------

TEST(FaultPlanTest, NamedScenarios) {
  FaultPlanOptions o;
  o.scenario = "failstop";
  o.num_gpus = 8;
  o.fault_step = 10;
  o.gpu = 3;
  const FaultPlan plan = *FaultPlan::Generate(o);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.events()[0].type, FaultType::kFailStop);
  EXPECT_EQ(plan.events()[0].gpu, 3);
  EXPECT_EQ(plan.events()[0].step, 10);

  o.scenario = "straggler";
  o.recover_step = 20;
  const FaultPlan straggler = *FaultPlan::Generate(o);
  ASSERT_EQ(straggler.size(), 2u);
  EXPECT_EQ(straggler.events()[0].type, FaultType::kSlowdown);
  EXPECT_EQ(straggler.events()[1].type, FaultType::kRecover);

  o.scenario = "churn";
  const FaultPlan churn = *FaultPlan::Generate(o);
  ASSERT_EQ(churn.size(), 2u);
  EXPECT_EQ(churn.events()[0].type, FaultType::kLeave);
  EXPECT_EQ(churn.events()[1].type, FaultType::kJoin);

  o.scenario = "none";
  EXPECT_TRUE(FaultPlan::Generate(o)->empty());

  o.scenario = "bogus";
  EXPECT_FALSE(FaultPlan::Generate(o).ok());
}

TEST(FaultPlanOptionsTest, Validation) {
  FaultPlanOptions o;
  o.scenario = "random";
  o.num_gpus = 8;
  EXPECT_TRUE(o.Validate().ok());
  // NaN compares false against every bound, so each must be rejected
  // explicitly.
  o.compute_multiplier = std::nan("");
  EXPECT_FALSE(o.Validate().ok());
  o.compute_multiplier = 2.5;
  o.bandwidth_multiplier = HUGE_VAL;
  EXPECT_FALSE(o.Validate().ok());
  o.bandwidth_multiplier = 2.0;
  o.fail_rate_per_step = std::nan("");
  EXPECT_FALSE(o.Validate().ok());
}

TEST(FaultPlanTest, EventsSortedByStep) {
  std::vector<FaultEvent> events;
  FaultEvent a;
  a.step = 30;
  a.gpu = 1;
  FaultEvent b;
  b.step = 10;
  b.gpu = 2;
  events.push_back(a);
  events.push_back(b);
  const FaultPlan plan = FaultPlan::FromEvents(events);
  EXPECT_EQ(plan.events()[0].step, 10);
  EXPECT_EQ(plan.events()[1].step, 30);
  EXPECT_EQ(plan.horizon(), 30);
}

TEST(FaultPlanTest, RandomGenerationIsDeterministic) {
  FaultPlanOptions o;
  o.scenario = "random";
  o.num_gpus = 16;
  o.horizon_steps = 400;
  o.fail_rate_per_step = 0.05;
  o.straggle_rate_per_step = 0.05;
  o.seed = 1234;
  const FaultPlan a = *FaultPlan::Generate(o);
  const FaultPlan b = *FaultPlan::Generate(o);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.ToString(), b.ToString());  // byte-identical replay

  o.seed = 99;
  const FaultPlan c = *FaultPlan::Generate(o);
  EXPECT_NE(a.ToString(), c.ToString());
}

TEST(FaultPlanTest, RandomPlanRespectsPreconditions) {
  FaultPlanOptions o;
  o.scenario = "random";
  o.num_gpus = 8;
  o.horizon_steps = 500;
  o.fail_rate_per_step = 0.2;
  o.straggle_rate_per_step = 0.2;
  o.seed = 7;
  const FaultPlan plan = *FaultPlan::Generate(o);
  ClusterHealth health(8);
  for (const FaultEvent& e : plan.events()) {
    EXPECT_TRUE(health.Apply(e).ok()) << e.ToString();
    EXPECT_GE(health.num_alive(), 8 / 2);  // quorum kept
  }
}

// ---- ClusterHealth ---------------------------------------------------------

TEST(ClusterHealthTest, Transitions) {
  ClusterHealth h(4);
  EXPECT_TRUE(h.AllHealthy());
  EXPECT_EQ(h.num_alive(), 4);

  FaultEvent fail;
  fail.type = FaultType::kFailStop;
  fail.gpu = 2;
  const int64_t v0 = h.membership_version();
  EXPECT_TRUE(h.Apply(fail).ok());
  EXPECT_FALSE(h.alive(2));
  EXPECT_EQ(h.state(2), DeviceState::kFailed);
  EXPECT_EQ(h.num_alive(), 3);
  EXPECT_GT(h.membership_version(), v0);

  // Failing a dead device is rejected and changes nothing.
  EXPECT_FALSE(h.Apply(fail).ok());
  EXPECT_EQ(h.num_alive(), 3);

  FaultEvent join;
  join.type = FaultType::kJoin;
  join.gpu = 2;
  EXPECT_TRUE(h.Apply(join).ok());
  EXPECT_TRUE(h.alive(2));
  EXPECT_TRUE(h.AllHealthy());
}

TEST(ClusterHealthTest, SlowdownAndRecover) {
  ClusterHealth h(4);
  FaultEvent slow;
  slow.type = FaultType::kSlowdown;
  slow.gpu = 1;
  slow.compute_multiplier = 2.5;
  slow.bandwidth_multiplier = 1.5;
  EXPECT_TRUE(h.Apply(slow).ok());
  EXPECT_TRUE(h.alive(1));  // degraded but alive
  EXPECT_TRUE(h.AnyDegraded());
  EXPECT_DOUBLE_EQ(h.compute_multiplier(1), 2.5);
  EXPECT_DOUBLE_EQ(h.bandwidth_multiplier(1), 1.5);

  FaultEvent rec;
  rec.type = FaultType::kRecover;
  rec.gpu = 1;
  EXPECT_TRUE(h.Apply(rec).ok());
  EXPECT_DOUBLE_EQ(h.compute_multiplier(1), 1.0);
  EXPECT_TRUE(h.AllHealthy());

  // Recovering a healthy device is invalid.
  EXPECT_FALSE(h.Apply(rec).ok());
}

// ---- FaultScheduler --------------------------------------------------------

TEST(FaultSchedulerTest, FiresEventsAtTheirStep) {
  FaultPlanOptions o;
  o.scenario = "failstop";
  o.num_gpus = 8;
  o.fault_step = 5;
  o.gpu = 0;
  o.recover_step = 9;
  FaultScheduler sched(*FaultPlan::Generate(o));
  ClusterHealth health(8);

  EXPECT_TRUE(sched.AdvanceTo(4, &health).empty());
  EXPECT_TRUE(health.alive(0));
  const std::vector<FaultEvent> fired = sched.AdvanceTo(5, &health);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_FALSE(health.alive(0));
  EXPECT_EQ(sched.remaining(), 1u);
  // Jump past the join: late delivery still applies in order.
  EXPECT_EQ(sched.AdvanceTo(50, &health).size(), 1u);
  EXPECT_TRUE(health.alive(0));
  EXPECT_TRUE(sched.done());
}

// ---- Workload re-sharding --------------------------------------------------

TEST(RecoveryTest, RedistributeSourcesConservesTokens) {
  ClusterHealth h(4);
  FaultEvent fail;
  fail.type = FaultType::kFailStop;
  fail.gpu = 1;
  ASSERT_TRUE(h.Apply(fail).ok());

  Assignment a(3, 4);
  for (int e = 0; e < 3; ++e) {
    for (int g = 0; g < 4; ++g) a.set(e, g, 100 + e);
  }
  const Assignment out = RedistributeSources(a, h);
  EXPECT_EQ(out.Total(), a.Total());
  for (int e = 0; e < 3; ++e) {
    EXPECT_EQ(out.at(e, 1), 0);
    EXPECT_EQ(out.ExpertTotal(e), a.ExpertTotal(e));  // gate choice kept
  }
}

// ---- Placement repair ------------------------------------------------------

Placement SmallPlacement(int experts = 8, int gpus = 4, int slots = 4) {
  PlacementOptions o;
  o.num_experts = experts;
  o.num_gpus = gpus;
  o.slots_per_gpu = slots;
  return *Placement::ExpertParallel(o);
}

TEST(RecoveryTest, DrainReleasesDeadReplicasAndRestoresOrphans) {
  Placement p = SmallPlacement();
  ClusterHealth h(4);
  FaultEvent fail;
  fail.type = FaultType::kFailStop;
  fail.gpu = 0;
  ASSERT_TRUE(h.Apply(fail).ok());

  // Experts 0 and 1 live only on GPU 0 initially (block distribution).
  const int orphans_before = ExpertsWithoutLiveReplica(p, h);
  EXPECT_GT(orphans_before, 0);

  const DrainReport report = *DrainPlacement(h, /*expert_state_bytes=*/1e9, &p);
  EXPECT_EQ(report.experts_restored, orphans_before);
  EXPECT_GT(report.vexperts_released, 0);
  EXPECT_DOUBLE_EQ(report.restore_bytes, orphans_before * 1e9);
  EXPECT_EQ(p.UsedSlots(0), 0);
  EXPECT_EQ(ExpertsWithoutLiveReplica(p, h), 0);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(RecoveryTest, DrainReportsOrphansWhenSurvivorsCannotHostEveryExpert) {
  // 8 experts on 2 GPUs x 4 slots: killing one GPU leaves 4 slots for 8
  // experts — four experts must run orphaned, each keeping a tombstone
  // replica on the dead device; everything else still drains.
  Placement p = SmallPlacement(8, 2, 4);
  ClusterHealth h(2);
  FaultEvent fail;
  fail.type = FaultType::kFailStop;
  fail.gpu = 1;
  ASSERT_TRUE(h.Apply(fail).ok());
  const DrainReport report = *DrainPlacement(h, 1e9, &p);
  EXPECT_EQ(report.orphaned_experts, 4);
  EXPECT_EQ(report.experts_restored, 0);
  EXPECT_TRUE(p.Validate().ok());
  // Tombstones: each orphan keeps exactly one replica, on the dead GPU.
  EXPECT_EQ(p.UsedSlots(1), 4);
  EXPECT_EQ(ExpertsWithoutLiveReplica(p, h), 4);
}

TEST(RecoveryTest, FailoverMovesExpertsToSameNodePeer) {
  auto topo = *Topology::Create(AzureA100Options(8));
  const Placement p = *FixedExpertParallelPlacement(8, 8);
  ClusterHealth h(8);
  FaultEvent fail;
  fail.type = FaultType::kFailStop;
  fail.gpu = 3;
  ASSERT_TRUE(h.Apply(fail).ok());

  EXPECT_EQ(FailoverTarget(3, h, topo), 4);  // next alive same-node peer
  const Placement repaired = *FailoverPlacement(p, h, topo);
  EXPECT_EQ(repaired.UsedSlots(3), 0);
  // GPU 4 now hosts its own expert plus GPU 3's.
  EXPECT_EQ(repaired.UsedSlots(4), p.UsedSlots(4) + p.UsedSlots(3));
  EXPECT_TRUE(repaired.Validate().ok());

  // Once the device rejoins, failover of the baseline reproduces it.
  FaultEvent join;
  join.type = FaultType::kJoin;
  join.gpu = 3;
  ASSERT_TRUE(h.Apply(join).ok());
  EXPECT_TRUE(*FailoverPlacement(p, h, topo) == p);
}

// ---- NCCL group invalidation ----------------------------------------------

TEST(ElasticTest, GroupCacheEvictsGroupsContainingDeadGpu) {
  NcclGroupCache cache = *NcclGroupCache::Create(NcclGroupCache::Options{});
  cache.Acquire({0, 1});
  cache.Acquire({1, 2});
  cache.Acquire({2, 3});
  ASSERT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.EvictGroupsContaining(1), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Contains({0, 1}));
  EXPECT_TRUE(cache.Contains({2, 3}));
  // Re-acquiring a dead group pays the bootstrap cost again.
  EXPECT_GT(cache.Acquire({0, 1}), 0.0);
}

// ---- Scheduler / Policy Maker health consultation --------------------------

struct PlannerFixture {
  TestEnv env = TestEnv::Make(8);
  ModelConfig model;
  CostModel cost;
  PolicyMaker pm;

  PlannerFixture()
      : model([] {
          ModelConfig m = GptMoES();
          m.num_experts = 8;
          return m;
        }()),
        cost(&env.profile, ShapeFromModel(model)),
        pm(&cost, PolicyMakerOptions{}) {}
};

TEST(ElasticTest, PlanEvacuationMovesCapacityOffStragglers) {
  PlannerFixture f;
  ClusterHealth health(8);
  FaultEvent slow;
  slow.type = FaultType::kSlowdown;
  slow.gpu = 0;
  slow.compute_multiplier = 3.0;
  ASSERT_TRUE(health.Apply(slow).ok());
  f.pm.SetClusterHealth(&health);

  Placement p = SmallPlacement(8, 8, 4);
  const std::vector<ModOp> plan = f.pm.PlanEvacuation(p, 16);
  ASSERT_FALSE(plan.empty());
  bool copied_off_straggler = false;
  for (const ModOp& op : plan) {
    if (op.type == ModOpType::kExpand) {
      EXPECT_NE(op.dst, 0);  // never expand onto the straggler
      if (op.src == 0) copied_off_straggler = true;
    }
    ASSERT_TRUE(ApplyOp(op, &p).ok());
  }
  EXPECT_TRUE(copied_off_straggler);
  ASSERT_TRUE(p.Validate().ok());
  // After the evacuation round, every expert stranded on the straggler now
  // holds a copy on a healthy device (the straggler-side shrink follows on
  // the next trigger).
  for (const int e : p.ExpertsOn(0)) {
    EXPECT_GT(p.VExperts(e), p.VExpertsOn(e, 0)) << "expert " << e;
  }
  // A second round shrinks the straggler's now-redundant replicas.
  const std::vector<ModOp> second = f.pm.PlanEvacuation(p, 16);
  for (const ModOp& op : second) ASSERT_TRUE(ApplyOp(op, &p).ok());
  EXPECT_TRUE(p.ExpertsOn(0).empty());
}

TEST(ElasticTest, SchedulerTriggersOnCapacityChange) {
  PlannerFixture f;
  SchedulerOptions so;
  so.threshold = 1e9;  // balance alone would never trigger
  Scheduler scheduler(&f.pm, so);
  ClusterHealth health(8);
  scheduler.SetClusterHealth(&health);
  f.pm.SetClusterHealth(&health);

  Placement target = SmallPlacement(8, 8, 4);
  Assignment a(8, 8);
  for (int e = 0; e < 8; ++e) {
    for (int g = 0; g < 8; ++g) a.set(e, g, 128);
  }
  EXPECT_FALSE(scheduler.OnStep(0, a, &target).triggered);

  FaultEvent slow;
  slow.type = FaultType::kSlowdown;
  slow.gpu = 2;
  slow.compute_multiplier = 2.0;
  ASSERT_TRUE(health.Apply(slow).ok());
  const SchedulerDecision d = scheduler.OnStep(1, a, &target);
  EXPECT_TRUE(d.triggered);  // version change forced the trigger
  EXPECT_GT(d.evacuations, 0);
  // The version was consumed: no re-trigger next step.
  EXPECT_FALSE(scheduler.OnStep(2, a, &target).triggered);
}

// ---- Replay determinism ----------------------------------------------------

struct RunOutcome {
  std::vector<double> step_seconds;
  std::vector<std::string> final_placements;
  int64_t faults = 0;
  int64_t dropped = 0;
};

RunOutcome RunFlexMoEWithPlan(const FaultPlan& plan, uint64_t seed) {
  TestEnv env = TestEnv::Make(8);
  ModelConfig m = GptMoES();
  m.num_experts = 8;
  m.num_moe_layers = 2;
  m.tokens_per_gpu = 2048;

  FlexMoEOptions o;
  o.model = m;
  o.num_gpus = 8;
  auto sys = *FlexMoESystem::Create(o, env.topo.get(), &env.profile);
  EXPECT_TRUE(sys->InstallFaultPlan(plan).ok());

  TraceGeneratorOptions t;
  t.num_experts = m.num_experts;
  t.num_moe_layers = m.num_moe_layers;
  t.num_gpus = 8;
  t.tokens_per_gpu = m.tokens_per_gpu;
  t.seed = seed;
  TraceGenerator gen = *TraceGenerator::Create(t);

  RunOutcome out;
  for (int s = 0; s < 40; ++s) {
    const StepMetrics metrics = sys->RunStep(gen.Step());
    out.step_seconds.push_back(metrics.step_seconds);
    out.faults += metrics.faults_applied;
    out.dropped += metrics.tokens_dropped;
  }
  for (int l = 0; l < m.num_moe_layers; ++l) {
    out.final_placements.push_back(sys->live_placement(l).ToString());
  }
  return out;
}

TEST(ElasticReplayTest, SameSeedYieldsIdenticalRuns) {
  FaultPlanOptions o;
  o.scenario = "random";
  o.num_gpus = 8;
  o.horizon_steps = 40;
  o.fail_rate_per_step = 0.05;
  o.straggle_rate_per_step = 0.1;
  o.mean_outage_steps = 10;
  o.mean_straggle_steps = 8;
  o.seed = 2026;

  // The same seed must yield byte-identical event sequences...
  const FaultPlan plan_a = *FaultPlan::Generate(o);
  const FaultPlan plan_b = *FaultPlan::Generate(o);
  ASSERT_FALSE(plan_a.empty());
  ASSERT_EQ(plan_a.ToString(), plan_b.ToString());

  // ... and bit-identical training runs and final placements.
  const RunOutcome a = RunFlexMoEWithPlan(plan_a, /*seed=*/5);
  const RunOutcome b = RunFlexMoEWithPlan(plan_b, /*seed=*/5);
  ASSERT_EQ(a.step_seconds.size(), b.step_seconds.size());
  for (size_t i = 0; i < a.step_seconds.size(); ++i) {
    ASSERT_EQ(a.step_seconds[i], b.step_seconds[i]) << "step " << i;
  }
  EXPECT_EQ(a.final_placements, b.final_placements);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_GT(a.faults, 0);
}

}  // namespace
}  // namespace flexmoe
