// Tests for the shared engine-level step execution.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "core/step_executor.h"
#include "moe/transformer.h"

namespace flexmoe {
namespace {

struct Fixture {
  std::unique_ptr<Topology> topo;
  HardwareProfile profile;
  ClusterState cluster;
  ClusterHealth health;
  ModelConfig model;
  StepExecutor exec;

  static Fixture Make() {
    TopologyOptions topt;
    topt.num_nodes = 1;
    topt.gpus_per_node = 8;
    ModelConfig model = GptMoES();
    model.num_experts = 8;
    model.num_moe_layers = 1;
    return Fixture(std::make_unique<Topology>(*Topology::Create(topt)),
                   model);
  }

  Fixture(std::unique_ptr<Topology> t, ModelConfig m)
      : topo(std::move(t)),
        profile(topo.get(), GpuSpec{}),
        cluster(topo.get()),
        health(topo->num_gpus()),
        model(std::move(m)),
        exec(&cluster, &profile, model, &health) {}
};

Placement MakePlacement(int slots = 1) {
  PlacementOptions o;
  o.num_experts = 8;
  o.num_gpus = 8;
  o.slots_per_gpu = slots;
  return *Placement::ExpertParallel(o);
}

Assignment UniformAssignment(int64_t per_cell = 500) {
  Assignment a(8, 8);
  for (int e = 0; e < 8; ++e) {
    for (int g = 0; g < 8; ++g) a.set(e, g, per_cell);
  }
  return a;
}

TEST(StepExecutorTest, StepProducesPositivePhases) {
  Fixture f = Fixture::Make();
  const Placement p = MakePlacement();
  const RoutedAssignment r =
      FlexibleRouter::Route(UniformAssignment(), p);
  LayerWork work;
  work.routed = &r;
  work.placement = &p;
  const StepTiming t = f.exec.ExecuteStep({work}, nullptr);
  EXPECT_GT(t.StepSeconds(), 0.0);
  EXPECT_GT(t.a2a_seconds, 0.0);
  EXPECT_GT(t.compute_seconds, 0.0);
  EXPECT_GT(t.non_moe_seconds, 0.0);
  // No replicas: zero expert sync, but the DP AllReduce always runs.
  EXPECT_EQ(t.sync_seconds, 0.0);
  EXPECT_GT(t.dp_sync_seconds, 0.0);
  // Expert compute accounted per GPU.
  double total_compute = 0.0;
  for (double v : t.per_gpu_expert_compute) total_compute += v;
  EXPECT_GT(total_compute, 0.0);
}

TEST(StepExecutorTest, ConsecutiveStepsAdvanceFrontier) {
  Fixture f = Fixture::Make();
  const Placement p = MakePlacement();
  const RoutedAssignment r =
      FlexibleRouter::Route(UniformAssignment(), p);
  LayerWork work;
  work.routed = &r;
  work.placement = &p;
  const StepTiming t1 = f.exec.ExecuteStep({work}, nullptr);
  const StepTiming t2 = f.exec.ExecuteStep({work}, nullptr);
  // The reported end includes the final collective's latency tail, which
  // is not port occupancy — the next step's sends may pipeline into it.
  EXPECT_GE(t2.start, t1.end - 1e-3);
  EXPECT_GT(t2.start, t1.start);
  EXPECT_NEAR(t2.StepSeconds(), t1.StepSeconds(),
              t1.StepSeconds() * 0.01);  // identical work, identical time
}

TEST(StepExecutorTest, ImbalancedStepSlower) {
  Fixture f = Fixture::Make();
  const Placement p = MakePlacement();

  Assignment balanced = UniformAssignment(2000);
  Assignment skewed(8, 8);
  // Same total, all tokens on expert 0.
  for (int g = 0; g < 8; ++g) skewed.set(0, g, 2000 * 8);

  Fixture f2 = Fixture::Make();
  const RoutedAssignment rb = FlexibleRouter::Route(balanced, p);
  const RoutedAssignment rs = FlexibleRouter::Route(skewed, p);
  LayerWork wb{&rb, &p, {}, {}};
  LayerWork ws{&rs, &p, {}, {}};
  const StepTiming tb = f.exec.ExecuteStep({wb}, nullptr);
  const StepTiming ts = f2.exec.ExecuteStep({ws}, nullptr);
  EXPECT_GT(ts.StepSeconds(), tb.StepSeconds() * 1.5);
}

TEST(StepExecutorTest, ReplicatedExpertsPaySync) {
  Fixture f = Fixture::Make();
  Placement p = MakePlacement(2);
  ASSERT_TRUE(p.RemoveVExpert(1, 1).ok());
  ASSERT_TRUE(p.AddVExpert(0, 1).ok());  // expert 0 replicated on g0, g1

  Fixture f2 = Fixture::Make();
  const Placement single = MakePlacement(2);

  const Assignment a = UniformAssignment();
  const RoutedAssignment rr = FlexibleRouter::Route(a, p);
  const RoutedAssignment rs = FlexibleRouter::Route(a, single);
  LayerWork wr{&rr, &p, {}, {}};
  LayerWork wsingle{&rs, &single, {}, {}};
  const StepTiming tr = f.exec.ExecuteStep({wr}, nullptr);
  const StepTiming tsingle = f2.exec.ExecuteStep({wsingle}, nullptr);
  // Replica sync overlaps with backward, so it may not stretch the step —
  // but the sync activity itself must be present (and absent without
  // replicas).
  EXPECT_GT(tr.sync_busy_seconds, 0.0);
  EXPECT_EQ(tsingle.sync_busy_seconds, 0.0);
  EXPECT_GE(tr.StepSeconds(), tsingle.StepSeconds() - 1e-9);
}

TEST(StepExecutorTest, BroadcastsAddTime) {
  Fixture base = Fixture::Make();
  Fixture with_bc = Fixture::Make();
  const Placement p = MakePlacement();
  const Assignment a = UniformAssignment();
  const RoutedAssignment r = FlexibleRouter::Route(a, p);

  LayerWork plain{&r, &p, {}, {}};
  LayerWork bc{&r, &p, {}, {{0, 64e6}}};
  const StepTiming t_plain = base.exec.ExecuteStep({plain}, nullptr);
  const StepTiming t_bc = with_bc.exec.ExecuteStep({bc}, nullptr);
  EXPECT_GT(t_bc.StepSeconds(), t_plain.StepSeconds());
}

TEST(StepExecutorTest, ExtraSyncGroupsAddTime) {
  Fixture base = Fixture::Make();
  Fixture with_sync = Fixture::Make();
  const Placement p = MakePlacement();
  const Assignment a = UniformAssignment();
  const RoutedAssignment r = FlexibleRouter::Route(a, p);

  std::vector<GpuId> all = {0, 1, 2, 3, 4, 5, 6, 7};
  LayerWork plain{&r, &p, {}, {}};
  LayerWork synced{&r, &p, {all, all}, {}};
  const StepTiming t_plain = base.exec.ExecuteStep({plain}, nullptr);
  const StepTiming t_sync = with_sync.exec.ExecuteStep({synced}, nullptr);
  EXPECT_GT(t_sync.sync_seconds, t_plain.sync_seconds);
}

TEST(StepExecutorTest, GroupCacheChargesCreationOnce) {
  Fixture f1 = Fixture::Make();
  Fixture f2 = Fixture::Make();
  Placement p = MakePlacement(2);
  ASSERT_TRUE(p.RemoveVExpert(1, 1).ok());
  ASSERT_TRUE(p.AddVExpert(0, 1).ok());
  const Assignment a = UniformAssignment();
  const RoutedAssignment r = FlexibleRouter::Route(a, p);
  LayerWork work{&r, &p, {}, {}};

  NcclGroupCache cache = *NcclGroupCache::Create({64, 0.25});
  const StepTiming first = f1.exec.ExecuteStep({work}, &cache);
  // Same cache, second step: the group is warm, no creation cost.
  const StepTiming second = f1.exec.ExecuteStep({work}, &cache);
  EXPECT_GT(first.StepSeconds(), second.StepSeconds());
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_GE(cache.stats().hits, 1);

  // Without a cache both steps cost the same.
  const StepTiming n1 = f2.exec.ExecuteStep({work}, nullptr);
  const StepTiming n2 = f2.exec.ExecuteStep({work}, nullptr);
  EXPECT_NEAR(n1.StepSeconds(), n2.StepSeconds(), n1.StepSeconds() * 0.01);
}

TEST(StepExecutorTest, MoreLayersMoreTime) {
  Fixture f = Fixture::Make();
  const Placement p = MakePlacement();
  const Assignment a = UniformAssignment(2000);
  const RoutedAssignment r = FlexibleRouter::Route(a, p);
  LayerWork work{&r, &p, {}, {}};
  Fixture f2 = Fixture::Make();
  const StepTiming one = f.exec.ExecuteStep({work}, nullptr);
  const StepTiming two = f2.exec.ExecuteStep({work, work}, nullptr);
  // The non-MoE portion (attention compute + DP sync) is a per-step
  // constant, so doubling the MoE layers adds ~one layer's MoE phases.
  EXPECT_GT(two.StepSeconds(),
            one.StepSeconds() +
                0.7 * (one.a2a_seconds + one.compute_seconds));
  // The MoE-attributable phases DO double.
  EXPECT_NEAR(two.a2a_seconds, 2.0 * one.a2a_seconds,
              one.a2a_seconds * 0.2);
  EXPECT_NEAR(two.compute_seconds, 2.0 * one.compute_seconds,
              one.compute_seconds * 0.2);
}

TEST(StepExecutorTest, SyncsPostInAscendingLogicalIdOrder) {
  // Paper Section 4, "AllReduce Coordination": a GPU holding replicas of
  // several experts joins several AllReduces, and all GPUs must post them
  // in one order or the collectives deadlock. The executor posts each
  // layer's syncs by ascending logical id: expert ids first, then the
  // extra groups, numbered from the expert count.
  Fixture f = Fixture::Make();
  obs::ObservabilityOptions oo;
  oo.enabled = true;
  oo.trace_capacity = 4096;
  obs::Observability o(oo);
  f.exec.set_observability(&o);

  // Replica groups that overlap on GPUs 0 and 1, added out of id order:
  // e6 {0, 1, 6}, e2 {0, 1, 2}, e5 {1, 5}, e0 {0, 3}.
  Placement p = MakePlacement(4);
  for (const auto& [expert, gpu] :
       std::vector<std::pair<int, GpuId>>{{6, 0}, {6, 1}, {2, 0}, {2, 1},
                                          {5, 1}, {0, 3}}) {
    ASSERT_TRUE(p.RemoveVExpert(gpu, gpu).ok());
    ASSERT_TRUE(p.AddVExpert(expert, gpu).ok());
  }
  const RoutedAssignment r = FlexibleRouter::Route(UniformAssignment(), p);
  const std::vector<GpuId> all = {0, 1, 2, 3, 4, 5, 6, 7};
  // FasterMoE-style global shadow-gradient groups; a one-member group has
  // nothing to reduce and takes no id.
  LayerWork layer0{&r, &p, {all}, {}};
  LayerWork layer1{&r, &p, {{2, 3, 4}, {7}, all}, {}};
  f.exec.ExecuteStep({layer0, layer1}, nullptr);

  // Attribute each expert_sync span to the layer whose backward leg
  // launched it: the last preceding span with a "layer" arg.
  std::map<int, std::vector<int>> ids;
  std::map<int, std::vector<int>> sizes;
  int layer = -1;
  bool in_run = false;
  const obs::Tracer& tr = o.tracer();
  for (size_t i = 0; i < tr.size(); ++i) {
    const obs::TraceEvent& ev = tr.at(i);
    if (std::strcmp(ev.name, "expert_sync") == 0) {
      // One layer's syncs are posted back to back.
      if (!in_run) {
        EXPECT_TRUE(ids[layer].empty()) << "layer " << layer;
      }
      in_run = true;
      ids[layer].push_back(static_cast<int>(ev.arg_val0));
      sizes[layer].push_back(static_cast<int>(ev.arg_val1));
      continue;
    }
    in_run = false;
    if (ev.arg_key0 != nullptr && std::strcmp(ev.arg_key0, "layer") == 0) {
      layer = static_cast<int>(ev.arg_val0);
    }
  }
  ASSERT_EQ(ids.count(-1), 0u);
  const int num_experts = 8;
  EXPECT_EQ(ids[0], (std::vector<int>{0, 2, 5, 6, num_experts}));
  EXPECT_EQ(sizes[0], (std::vector<int>{2, 3, 2, 3, 8}));
  EXPECT_EQ(ids[1],
            (std::vector<int>{0, 2, 5, 6, num_experts, num_experts + 1}));
  EXPECT_EQ(sizes[1], (std::vector<int>{2, 3, 2, 3, 3, 8}));
}

}  // namespace
}  // namespace flexmoe
