// Tests for the Policy Maker (Algorithm 2) and migration planning.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "core/incremental_cost.h"
#include "core/policy_maker.h"
#include "gate/trace_generator.h"
#include "util/rng.h"

namespace flexmoe {
namespace {

struct Fixture {
  std::unique_ptr<Topology> topo;
  HardwareProfile profile;
  ModelConfig model;
  CostModel cost;
  PolicyMaker pm;

  static Fixture Make(int nodes = 2, int gpus_per_node = 4) {
    TopologyOptions topt;
    topt.num_nodes = nodes;
    topt.gpus_per_node = gpus_per_node;
    ModelConfig model = GptMoES();
    model.num_experts = 8;
    return Fixture(std::make_unique<Topology>(*Topology::Create(topt)),
                   model);
  }

  /// G = E = `gpus` on AzureA100Options nodes: one expert per GPU.
  static Fixture ExpertPerGpu(int gpus) {
    ModelConfig model = GptMoES();
    model.num_experts = gpus;
    return Fixture(
        std::make_unique<Topology>(*Topology::Create(AzureA100Options(gpus))),
        model);
  }

  Fixture(std::unique_ptr<Topology> t, ModelConfig m)
      : topo(std::move(t)),
        profile(topo.get(), GpuSpec{}),
        model(std::move(m)),
        cost(&profile, ShapeFromModel(model)),
        pm(&cost, PolicyMakerOptions{}) {}
};

Placement MakePlacement(int experts, int gpus, int slots = 2) {
  PlacementOptions o;
  o.num_experts = experts;
  o.num_gpus = gpus;
  o.slots_per_gpu = slots;
  return *Placement::ExpertParallel(o);
}

Assignment SkewedAssignment(int experts, int gpus, int64_t hot_load,
                            int64_t cold_load) {
  Assignment a(experts, gpus);
  for (int g = 0; g < gpus; ++g) {
    a.set(0, g, hot_load / gpus);
    for (int e = 1; e < experts; ++e) a.set(e, g, cold_load / gpus);
  }
  return a;
}

/// One routing step of a seeded G = E = `gpus` trace.
Assignment GeneratedAssignment(int gpus, int64_t tokens_per_gpu) {
  TraceGeneratorOptions t;
  t.num_experts = gpus;
  t.num_moe_layers = 1;
  t.num_gpus = gpus;
  t.tokens_per_gpu = tokens_per_gpu;
  t.seed = 7;
  TraceGenerator gen = *TraceGenerator::Create(t);
  return gen.Step()[0];
}

TEST(PolicyMakerOptionsTest, Validation) {
  PolicyMakerOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.min_improvement_frac = 1.5;
  EXPECT_FALSE(o.Validate().ok());
  o.min_improvement_frac = std::nan("");
  EXPECT_FALSE(o.Validate().ok());
}

TEST(PolicyMakerTest, NoPlanWhenBalanced) {
  const Fixture f = Fixture::Make();
  const Placement p = MakePlacement(8, 8);
  Assignment a(8, 8);
  for (int e = 0; e < 8; ++e) a.set(e, e, 1000);  // perfectly even
  EXPECT_TRUE(f.pm.MakeSchedulingPlan(a, p).empty());
}

TEST(PolicyMakerTest, PlanExpandsHotShrinksCold) {
  const Fixture f = Fixture::Make();
  const Placement p = MakePlacement(8, 8);
  const Assignment a = SkewedAssignment(8, 8, 64000, 800);
  const std::vector<ModOp> plan = f.pm.MakeSchedulingPlan(a, p);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].type, ModOpType::kShrink);
  EXPECT_EQ(plan[1].type, ModOpType::kExpand);
  EXPECT_EQ(plan[1].expert, 0);       // the hot expert expands
  EXPECT_NE(plan[0].expert, 0);       // a cold expert shrinks
}

TEST(PolicyMakerTest, PlanStrictlyImprovesEstimatedTime) {
  const Fixture f = Fixture::Make();
  Placement p = MakePlacement(8, 8);
  const Assignment a = SkewedAssignment(8, 8, 64000, 800);
  const double t0 = f.cost.EstimateLayerSeconds(a, p);
  const std::vector<ModOp> plan = f.pm.MakeSchedulingPlan(a, p);
  ASSERT_FALSE(plan.empty());
  for (const ModOp& op : plan) ASSERT_TRUE(ApplyOp(op, &p).ok());
  const double t1 = f.cost.EstimateLayerSeconds(a, p);
  EXPECT_LT(t1, t0);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(PolicyMakerTest, IterationConvergesToNoPlan) {
  // Repeatedly applying plans must terminate (Algorithm 1's inner loop).
  const Fixture f = Fixture::Make();
  Placement p = MakePlacement(8, 8);
  const Assignment a = SkewedAssignment(8, 8, 64000, 800);
  int rounds = 0;
  double last = f.cost.EstimateLayerSeconds(a, p);
  while (rounds < 64) {
    const std::vector<ModOp> plan = f.pm.MakeSchedulingPlan(a, p);
    if (plan.empty()) break;
    for (const ModOp& op : plan) ASSERT_TRUE(ApplyOp(op, &p).ok());
    const double now = f.cost.EstimateLayerSeconds(a, p);
    EXPECT_LT(now, last);  // monotone improvement
    last = now;
    ++rounds;
  }
  EXPECT_LT(rounds, 64);
  EXPECT_GT(rounds, 0);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(PolicyMakerTest, SlotAccountingPreservedByPlans) {
  const Fixture f = Fixture::Make();
  Placement p = MakePlacement(8, 8);
  const int total_before =
      p.total_slots();
  const Assignment a = SkewedAssignment(8, 8, 64000, 800);
  for (int i = 0; i < 8; ++i) {
    const auto plan = f.pm.MakeSchedulingPlan(a, p);
    if (plan.empty()) break;
    for (const ModOp& op : plan) ASSERT_TRUE(ApplyOp(op, &p).ok());
  }
  int used = 0;
  for (GpuId g = 0; g < 8; ++g) used += p.UsedSlots(g);
  // Paired Expand/Shrink keeps the total used-slot count constant.
  EXPECT_EQ(used, total_before);
}

TEST(PolicyMakerTest, RespectsMinImprovementGuard) {
  PolicyMakerOptions strict;
  strict.min_improvement_frac = 0.99;  // require a 99% improvement
  Fixture f = Fixture::Make();
  PolicyMaker pm(&f.cost, strict);
  const Placement p = MakePlacement(8, 8);
  const Assignment a = SkewedAssignment(8, 8, 64000, 800);
  EXPECT_TRUE(pm.MakeSchedulingPlan(a, p).empty());
}

TEST(PolicyMakerTest, TotalSyncSecondsZeroWithoutReplicas) {
  const Fixture f = Fixture::Make();
  const Placement p = MakePlacement(8, 8);
  EXPECT_EQ(f.pm.TotalSyncSeconds(p), 0.0);
}

TEST(PolicyMakerTest, MigrationConsolidatesCrossNodeReplicas) {
  const Fixture f = Fixture::Make(2, 4);  // nodes {0..3}, {4..7}
  Placement p = MakePlacement(8, 8);
  // Expert 0: replicas on g0, g1 (node 0) and a lonely one on g4 (node 1).
  ASSERT_TRUE(p.RemoveVExpert(1, 1).ok());
  ASSERT_TRUE(p.AddVExpert(0, 1).ok());
  ASSERT_TRUE(p.RemoveVExpert(4, 4).ok());
  ASSERT_TRUE(p.AddVExpert(0, 4).ok());
  const double sync_before = f.pm.TotalSyncSeconds(p);
  EXPECT_GT(sync_before, 0.0);

  const std::vector<ModOp> migrations = f.pm.PlanMigrations(p, 4);
  ASSERT_FALSE(migrations.empty());
  for (const ModOp& op : migrations) {
    EXPECT_EQ(op.type, ModOpType::kMigrate);
    ASSERT_TRUE(ApplyOp(op, &p).ok());
  }
  const double sync_after = f.pm.TotalSyncSeconds(p);
  EXPECT_LT(sync_after, sync_before);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(PolicyMakerTest, NoMigrationWhenAlreadyConsolidated) {
  const Fixture f = Fixture::Make();
  Placement p = MakePlacement(8, 8);
  // Replicas within one node only.
  ASSERT_TRUE(p.RemoveVExpert(1, 1).ok());
  ASSERT_TRUE(p.AddVExpert(0, 1).ok());
  EXPECT_TRUE(f.pm.PlanMigrations(p, 4).empty());
}

// The Eq. 5 search cost of one plan at G = E = 64 (default granularity)
// on generated traffic: the candidate count is deterministic, so any
// change to the search's breadth shows here.
TEST(PolicyMakerTest, CandidateCountAtG64) {
  const Fixture f = Fixture::ExpertPerGpu(64);
  const Assignment a = GeneratedAssignment(64, 8192);
  PlanSearchStats stats;
  f.pm.MakeSchedulingPlan(a, MakePlacement(64, 64, /*slots=*/0), &stats);
  EXPECT_EQ(stats.candidates_evaluated, 9);
}

// The expand order (core/policy_maker.h): GPUs on a node already hosting
// the hot expert first, then ascending GPU load, whatever the cross-node
// traffic into each node. Four nodes of two GPUs: the hot expert 0 lives
// on GPUs 2 and 4 (nodes 1 and 2), so its node-local free slots are GPUs
// 3 and 5, where feeder experts 4 and 5 set each GPU's load and each
// node's inbound links. With one expand candidate per search, the plan's
// destination is the head of the order.
TEST(PolicyMakerTest, ExpandOrderIsNodeLocalThenGpuLoad) {
  struct Case {
    const char* name;
    // Expert 4 (on GPU 3) tokens from GPU 0, GPU 6 and GPU 3 itself;
    // expert 5 (on GPU 5) tokens from GPU 0 and GPU 5 itself.
    int64_t e4_from0, e4_from6, e4_local, e5_from0, e5_local;
    GpuId dst;
  };
  const Case cases[] = {
      // GPU 5 (150) is lighter than GPU 3 (200), though node 2's one
      // inbound link carries more than either of node 1's two.
      {"max-link", 100, 100, 0, 150, 0, 5},
      // GPU 3 (200) is lighter than GPU 5 (400), though node 1's
      // cross-node inflow is twice node 2's.
      {"inflow", 100, 100, 0, 100, 300, 3},
      // Links and inflow tie at 100; GPU 5 (100) is lighter than GPU 3
      // (150).
      {"load", 100, 0, 50, 100, 0, 5},
  };
  TopologyOptions topt;
  topt.num_nodes = 4;
  topt.gpus_per_node = 2;
  // Inter-node links as fast as NVLink, so that the compute relief of an
  // expansion outweighs the cross-node spill it causes.
  topt.inter_node_bytes_per_sec = topt.intra_node_bytes_per_sec;
  ModelConfig model = GptMoES();
  model.num_experts = 8;
  const Fixture f(std::make_unique<Topology>(*Topology::Create(topt)),
                  model);
  PlacementOptions po;
  po.num_experts = 8;
  po.num_gpus = 8;
  po.slots_per_gpu = 2;
  // Expert 1 (no tokens, two vExperts) is the cold expert to shrink;
  // experts 2 and 3 fill the hot expert's GPUs, so GPUs 3 and 5 hold
  // its only node-local free slots.
  const Placement p = *Placement::FromReplicaMap(
      po, {{{2, 1}, {4, 1}}, {{0, 1}, {1, 1}}, {{2, 1}}, {{4, 1}}, {{3, 1}},
           {{5, 1}}, {{6, 1}}, {{7, 1}}});
  PolicyMakerOptions options;
  options.max_expand_candidates = 1;
  options.min_improvement_frac = 0.0;
  options.serve_objective = true;  // no replica sync to outweigh the relief
  for (const Case& c : cases) {
    Assignment a(8, 8);
    a.set(0, 2, 4000);
    a.set(0, 4, 4000);
    a.set(4, 0, c.e4_from0);
    a.set(4, 6, c.e4_from6);
    a.set(4, 3, c.e4_local);
    a.set(5, 0, c.e5_from0);
    a.set(5, 5, c.e5_local);
    SCOPED_TRACE(c.name);
    const PolicyMaker pm(&f.cost, options);
    const std::vector<ModOp> plan = pm.MakeSchedulingPlan(a, p);
    ASSERT_EQ(plan.size(), 2u);
    ASSERT_EQ(plan[1].type, ModOpType::kExpand);
    EXPECT_EQ(plan[1].expert, 0);
    EXPECT_EQ(plan[1].dst, c.dst);
  }
}

// Re-planning must stay off the step's critical path at large EP: on one
// live LayerCostState at G = E = 512 (two slots per GPU, as the large-EP
// preset ships), the median PlanOnState call takes under 1 ms (0.07 to
// 0.10 ms on a 4-vCPU host). The only wall-clock bound in the suite:
// optimized builds only, and a median of 31 calls so one preempted call
// cannot fail it.
TEST(PolicyMakerTest, PlanOnStateUnderOneMillisecondAtG512) {
#ifndef NDEBUG
  GTEST_SKIP() << "wall-clock bound is for optimized (NDEBUG) builds";
#endif
  const Fixture f = Fixture::ExpertPerGpu(512);
  const Assignment a = GeneratedAssignment(512, 1024);
  LayerCostState state(&f.cost, /*include_sync=*/true);
  state.Reset(a, MakePlacement(512, 512, /*slots=*/2));
  std::vector<double> seconds;
  for (int i = 0; i < 31; ++i) {
    const auto start = std::chrono::steady_clock::now();
    f.pm.PlanOnState(&state);
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  std::nth_element(seconds.begin(), seconds.begin() + 15, seconds.end());
  EXPECT_LT(seconds[15], 1e-3);
}

}  // namespace
}  // namespace flexmoe
