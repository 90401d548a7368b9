// Tests for the Scheduler (Algorithm 1): trigger policies, metric choices,
// and the planning loop's contract.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/scheduler.h"
#include "core/balance.h"

namespace flexmoe {
namespace {

struct Fixture {
  std::unique_ptr<Topology> topo;
  HardwareProfile profile;
  ModelConfig model;
  CostModel cost;
  PolicyMaker pm;

  static Fixture Make() {
    TopologyOptions topt;
    topt.num_nodes = 1;
    topt.gpus_per_node = 8;
    ModelConfig model = GptMoES();
    model.num_experts = 8;
    return Fixture(std::make_unique<Topology>(*Topology::Create(topt)),
                   model);
  }

  Fixture(std::unique_ptr<Topology> t, ModelConfig m)
      : topo(std::move(t)),
        profile(topo.get(), GpuSpec{}),
        model(std::move(m)),
        cost(&profile, ShapeFromModel(model)),
        pm(&cost, PolicyMakerOptions{}) {}
};

Placement MakePlacement() {
  PlacementOptions o;
  o.num_experts = 8;
  o.num_gpus = 8;
  o.slots_per_gpu = 2;
  return *Placement::ExpertParallel(o);
}

Assignment Skewed() {
  Assignment a(8, 8);
  for (int g = 0; g < 8; ++g) {
    a.set(0, g, 8000);
    for (int e = 1; e < 8; ++e) a.set(e, g, 100);
  }
  return a;
}

Assignment Balanced() {
  Assignment a(8, 8);
  for (int e = 0; e < 8; ++e) {
    for (int g = 0; g < 8; ++g) a.set(e, g, 1000);
  }
  return a;
}

TEST(SchedulerOptionsTest, Validation) {
  SchedulerOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.threshold = 0.5;
  EXPECT_FALSE(o.Validate().ok());
  o = SchedulerOptions{};
  o.static_interval_steps = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = SchedulerOptions{};
  o.max_plan_iterations = 0;
  EXPECT_FALSE(o.Validate().ok());
  // NaN compares false against every bound: a NaN threshold would
  // silently never trigger.
  o = SchedulerOptions{};
  o.threshold = std::nan("");
  EXPECT_FALSE(o.Validate().ok());
  o = SchedulerOptions{};
  o.variance_threshold = std::nan("");
  EXPECT_FALSE(o.Validate().ok());
}

TEST(SchedulerTest, NoTriggerBelowThreshold) {
  Fixture f = Fixture::Make();
  Scheduler sched(&f.pm, SchedulerOptions{});
  Placement p = MakePlacement();
  const SchedulerDecision d = sched.OnStep(0, Balanced(), &p);
  EXPECT_FALSE(d.triggered);
  EXPECT_TRUE(d.ops.empty());
  EXPECT_NEAR(d.metric_before, 1.0, 0.01);
}

TEST(SchedulerTest, TriggersAndImprovesOnSkew) {
  Fixture f = Fixture::Make();
  SchedulerOptions opts;
  opts.max_plan_iterations = 16;
  Scheduler sched(&f.pm, opts);
  Placement p = MakePlacement();
  const Assignment a = Skewed();
  const double before = BalanceRatioOf(a, p);
  EXPECT_GT(before, opts.threshold);

  const SchedulerDecision d = sched.OnStep(0, a, &p);
  EXPECT_TRUE(d.triggered);
  EXPECT_GT(d.plan_rounds, 0);
  EXPECT_FALSE(d.ops.empty());
  EXPECT_LT(d.metric_after, d.metric_before);
  EXPECT_TRUE(p.Validate().ok());
  // The scheduler never worsens the balance.
  EXPECT_LE(BalanceRatioOf(a, p), before);
}

TEST(SchedulerTest, MetricOfMatchesBalanceHelpers) {
  Fixture f = Fixture::Make();
  Scheduler max_sched(&f.pm, SchedulerOptions{});
  SchedulerOptions vopts;
  vopts.metric = TriggerMetric::kVariance;
  Scheduler var_sched(&f.pm, vopts);
  const Placement p = MakePlacement();
  const Assignment a = Skewed();
  const RoutedAssignment r = FlexibleRouter::Route(a, p);
  EXPECT_NEAR(max_sched.MetricOf(a, p),
              BalanceRatio(r.PerGpuComputeLoads()), 1e-12);
  EXPECT_NEAR(var_sched.MetricOf(a, p),
              BalanceVariance(r.PerGpuComputeLoads()), 1e-12);
}

TEST(SchedulerTest, StaticIntervalIgnoresBalance) {
  Fixture f = Fixture::Make();
  SchedulerOptions opts;
  opts.policy = TriggerPolicy::kStaticInterval;
  opts.static_interval_steps = 10;
  Scheduler sched(&f.pm, opts);
  Placement p = MakePlacement();
  // Balanced workload, but step 0 hits the interval: triggered (may still
  // produce no ops).
  EXPECT_TRUE(sched.OnStep(0, Balanced(), &p).triggered);
  EXPECT_FALSE(sched.OnStep(1, Skewed(), &p).triggered);   // off-interval
  EXPECT_FALSE(sched.OnStep(9, Skewed(), &p).triggered);
  EXPECT_TRUE(sched.OnStep(10, Skewed(), &p).triggered);
}

TEST(SchedulerTest, PlanIterationBound) {
  Fixture f = Fixture::Make();
  SchedulerOptions opts;
  opts.max_plan_iterations = 2;
  Scheduler sched(&f.pm, opts);
  Placement p = MakePlacement();
  const SchedulerDecision d = sched.OnStep(0, Skewed(), &p);
  EXPECT_LE(d.plan_rounds, 2);
}

TEST(SchedulerTest, OpsApplyCleanlyToFreshPlacement) {
  // The decision's op list must be replayable on a copy of the original
  // placement (the executor applies it to the live one).
  Fixture f = Fixture::Make();
  SchedulerOptions opts;
  opts.max_plan_iterations = 16;
  Scheduler sched(&f.pm, opts);
  Placement target = MakePlacement();
  Placement live = target;
  const SchedulerDecision d = sched.OnStep(0, Skewed(), &target);
  for (const ModOp& op : d.ops) {
    ASSERT_TRUE(ApplyOp(op, &live).ok()) << op.ToString();
  }
  EXPECT_TRUE(live == target);
}

TEST(SchedulerTest, VarianceMetricAlsoBalances) {
  Fixture f = Fixture::Make();
  SchedulerOptions opts;
  opts.metric = TriggerMetric::kVariance;
  opts.variance_threshold = 0.05;
  opts.max_plan_iterations = 16;
  Scheduler sched(&f.pm, opts);
  Placement p = MakePlacement();
  const Assignment a = Skewed();
  const SchedulerDecision d = sched.OnStep(0, a, &p);
  EXPECT_TRUE(d.triggered);
  EXPECT_LT(d.metric_after, d.metric_before);
}

// Depth planning follows the incumbent: at a fixed K (incumbent 0) a
// triggered invocation recommends no depth; under auto-K (the layer's
// current depth >= 1) it recommends one of the candidate depths, both on
// a trigger that reaches the plan loop and on one the threshold forced.
TEST(SchedulerTest, PlansChunkDepthOnlyWithAnIncumbent) {
  Fixture f = Fixture::Make();
  const auto is_candidate = [](int k) {
    for (const int c : CostModel::kChunkDepthCandidates) {
      if (k == c) return true;
    }
    return false;
  };
  for (const bool forced : {false, true}) {
    SCOPED_TRACE(testing::Message() << "forced=" << forced);
    const Assignment a = forced ? Balanced() : Skewed();
    Scheduler fixed_k(&f.pm, SchedulerOptions{});
    Placement p = MakePlacement();
    const SchedulerDecision none = fixed_k.OnStep(0, a, &p, forced, 0);
    EXPECT_TRUE(none.triggered);
    EXPECT_EQ(none.pipeline_chunks, 0);
    for (const int incumbent : {1, 2, 4, 8}) {
      Scheduler auto_k(&f.pm, SchedulerOptions{});
      Placement q = MakePlacement();
      const SchedulerDecision d = auto_k.OnStep(0, a, &q, forced, incumbent);
      EXPECT_TRUE(d.triggered);
      EXPECT_TRUE(is_candidate(d.pipeline_chunks))
          << "incumbent " << incumbent << " -> " << d.pipeline_chunks;
    }
  }
}

TEST(TriggerNamesTest, Strings) {
  EXPECT_STREQ(TriggerMetricName(TriggerMetric::kMaxRatio), "Max");
  EXPECT_STREQ(TriggerMetricName(TriggerMetric::kVariance), "Variance");
  EXPECT_STREQ(TriggerPolicyName(TriggerPolicy::kDynamic), "Dynamic");
  EXPECT_STREQ(TriggerPolicyName(TriggerPolicy::kStaticInterval),
               "StaticInterval");
}

}  // namespace
}  // namespace flexmoe
