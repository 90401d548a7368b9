// Tests for the analytic cost model (Eqs. 5, 7, 8, 9) and its agreement
// with the discrete-event executors.

#include <gtest/gtest.h>

#include <memory>

#include "collective/profiler.h"
#include "core/cost_model.h"
#include "core/step_executor.h"
#include "util/rng.h"

namespace flexmoe {
namespace {

struct Fixture {
  std::unique_ptr<Topology> topo;
  HardwareProfile profile;
  ModelConfig model;
  CostModel cost;

  static Fixture Make() {
    TopologyOptions topt;
    topt.num_nodes = 2;
    topt.gpus_per_node = 4;
    ModelConfig model = GptMoES();
    model.num_experts = 8;
    model.num_moe_layers = 2;
    return Fixture(std::make_unique<Topology>(*Topology::Create(topt)),
                   model);
  }

  Fixture(std::unique_ptr<Topology> t, ModelConfig m)
      : topo(std::move(t)),
        profile(topo.get(), GpuSpec{}),
        model(std::move(m)),
        cost(&profile, ShapeFromModel(model)) {}
};

Placement MakePlacement(int experts, int gpus, int slots = 4) {
  PlacementOptions o;
  o.num_experts = experts;
  o.num_gpus = gpus;
  o.slots_per_gpu = slots;
  return *Placement::ExpertParallel(o);
}

TEST(ExpertShapeTest, FromModel) {
  const ModelConfig m = GptMoES();
  const ExpertShape s = ShapeFromModel(m);
  EXPECT_DOUBLE_EQ(s.fwdbwd_flops_per_token, m.expert_fwdbwd_flops_per_token());
  EXPECT_DOUBLE_EQ(s.token_bytes, m.token_bytes());
  EXPECT_DOUBLE_EQ(s.grad_bytes, m.expert_grad_bytes());
  EXPECT_DOUBLE_EQ(s.state_bytes, m.expert_state_bytes());
}

TEST(CostModelTest, ComputeSecondsEq7) {
  const Fixture f = Fixture::Make();
  // Eq. 7: I/TPS plus kernel overhead.
  const double t = f.cost.ComputeSeconds(10000);
  const double tps =
      f.profile.TokensPerSecond(f.model.expert_fwdbwd_flops_per_token());
  EXPECT_NEAR(t, 10000.0 / tps + GpuSpec{}.kernel_overhead_sec, 1e-9);
  EXPECT_EQ(f.cost.ComputeSeconds(0), 0.0);
}

TEST(CostModelTest, A2ASecondsEq8FourCrossings) {
  const Fixture f = Fixture::Make();
  const Placement p = MakePlacement(8, 8, 1);
  Assignment a(8, 8);
  a.set(0, 1, 1000);  // g1 -> expert 0 @ g0
  const RoutedAssignment r = FlexibleRouter::Route(a, p);
  const double t = f.cost.A2ASeconds(r, /*dst=*/0);
  const double one_crossing =
      1000.0 * f.model.token_bytes() / f.profile.BandwidthBytesPerSec(1, 0) +
      2.0 * f.profile.LatencySeconds(1, 0);  // pipeline fill + drain
  EXPECT_NEAR(t, 4.0 * one_crossing, 1e-9);  // Eq. 8's factor 4
}

TEST(CostModelTest, SyncSecondsEq9) {
  const Fixture f = Fixture::Make();
  Placement p = MakePlacement(8, 8, 2);
  // No replicas: zero sync.
  EXPECT_EQ(f.cost.SyncSeconds(p, 0), 0.0);
  // Replicate expert 0 across nodes: Eq. 9 with the group's BPS.
  ASSERT_TRUE(p.RemoveVExpert(4, 4).ok());
  ASSERT_TRUE(p.AddVExpert(0, 4).ok());
  const double t = f.cost.SyncSeconds(p, 0);
  const double expected = f.profile.AllReduceSeconds(
      f.model.expert_grad_bytes(), {0, 4});
  EXPECT_NEAR(t, expected, 1e-12);
  EXPECT_GT(t, 0.0);
}

TEST(CostModelTest, LayerEstimateMaxOverGpusEq5) {
  const Fixture f = Fixture::Make();
  const Placement p = MakePlacement(8, 8, 1);
  Assignment a(8, 8);
  a.set(0, 0, 50000);  // expert 0 (on g0) massively loaded
  a.set(1, 1, 100);
  const LayerCostEstimate est = f.cost.EstimateLayer(a, p);
  EXPECT_DOUBLE_EQ(est.total_seconds, est.per_gpu_seconds[0]);
  EXPECT_GT(est.per_gpu_seconds[0], est.per_gpu_seconds[1]);
  // Breakdown adds up.
  for (int g = 0; g < 8; ++g) {
    EXPECT_NEAR(est.per_gpu_seconds[g],
                est.per_gpu_compute[g] + est.per_gpu_a2a[g] +
                    est.per_gpu_sync[g],
                1e-12);
  }
}

TEST(CostModelTest, BalancedPlacementLowersEstimate) {
  const Fixture f = Fixture::Make();
  Placement p = MakePlacement(8, 8, 2);
  Assignment a(8, 8);
  for (int g = 0; g < 8; ++g) a.set(0, g, 2000);  // hot expert 0
  for (int e = 1; e < 8; ++e) a.set(e, e, 100);
  const double before = f.cost.EstimateLayerSeconds(a, p);
  // Give the hot expert three more replicas.
  for (GpuId g = 5; g < 8; ++g) {
    ASSERT_TRUE(p.RemoveVExpert(static_cast<int>(g), g).ok());
    ASSERT_TRUE(p.AddVExpert(0, g).ok());
  }
  const double after = f.cost.EstimateLayerSeconds(a, p);
  EXPECT_LT(after, before);
}

TEST(CostModelTest, EstimateTracksEngineWithinTolerance) {
  // The Fig. 6(c) property at the layer level: analytic Eq. 5 vs the
  // engine's execution of the same routed layer, modest tolerance (the
  // engine sees contention the analytic model ignores).
  TopologyOptions topt;
  topt.num_nodes = 2;
  topt.gpus_per_node = 4;
  const Topology topo = *Topology::Create(topt);
  Profiler profiler(&topo, GpuSpec{}, ProfilerOptions{});
  ModelConfig model = GptMoES();
  model.num_experts = 8;
  model.num_moe_layers = 1;
  const HardwareProfile profile =
      *profiler.Calibrate(model.expert_fwdbwd_flops_per_token());
  const CostModel cost(&profile, ShapeFromModel(model));

  const Placement p = MakePlacement(8, 8, 1);
  Assignment a(8, 8);
  Rng rng(4);
  for (int e = 0; e < 8; ++e) {
    for (int g = 0; g < 8; ++g) {
      a.set(e, g, 200 + static_cast<int64_t>(rng.UniformInt(2000)));
    }
  }
  const RoutedAssignment routed = FlexibleRouter::Route(a, p);
  const double est = cost.EstimateLayer(routed, p).total_seconds;

  ClusterState cluster(&topo);
  StepExecutor exec(&cluster, &profile, model);
  LayerWork work;
  work.routed = &routed;
  work.placement = &p;
  const StepTiming timing = exec.ExecuteStep({work}, nullptr);
  // The engine's MoE portion excludes non-MoE compute/sync.
  const double engine_moe =
      timing.a2a_seconds + timing.compute_seconds + timing.sync_seconds;
  EXPECT_NEAR(est, engine_moe, engine_moe * 0.35);
  EXPECT_GT(est, engine_moe * 0.4);
}

}  // namespace
}  // namespace flexmoe
