// Tests for the baseline systems: DeepSpeed-style expert parallelism,
// FasterMoE shadowing, and SWIPE strict rebalancing.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "baselines/static_layout.h"
#include "gate/trace_generator.h"
#include "moe/transformer.h"
#include "test_env.h"

namespace flexmoe {
namespace {

ModelConfig SmallModel() {
  ModelConfig m = GptMoES();
  m.num_experts = 16;
  m.num_moe_layers = 2;
  m.tokens_per_gpu = 2048;
  return m;
}

std::vector<Assignment> SkewedStep(const ModelConfig& m, int num_gpus) {
  std::vector<Assignment> step;
  for (int l = 0; l < m.num_moe_layers; ++l) {
    Assignment a(m.num_experts, num_gpus);
    for (int g = 0; g < num_gpus; ++g) {
      a.set(0, g, 3000);  // hot expert
      for (int e = 1; e < m.num_experts; ++e) a.set(e, g, 70);
    }
    step.push_back(std::move(a));
  }
  return step;
}

TEST(FixedPlacementTest, OneVExpertPerExpert) {
  const Placement p = *FixedExpertParallelPlacement(16, 8);
  EXPECT_TRUE(p.Validate().ok());
  for (int e = 0; e < 16; ++e) {
    EXPECT_EQ(p.VExperts(e), 1) << e;
    EXPECT_EQ(p.HostGpus(e).size(), 1u);
  }
  // Block distribution: experts 0,1 on GPU 0; 2,3 on GPU 1; ...
  EXPECT_EQ(p.HostGpus(0)[0], 0);
  EXPECT_EQ(p.HostGpus(2)[0], 1);
  EXPECT_EQ(p.HostGpus(15)[0], 7);
}

TEST(ExpertParallelTest, DropsTokensBeyondCapacity) {
  TestEnv f = TestEnv::Make();
  StaticLayoutOptions o;
  o.admission = StaticAdmission::kCapacity;
  o.model = SmallModel();
  o.num_gpus = 8;
  o.capacity_factor = 1.0;
  auto sys = *StaticLayoutSystem::Create(o, f.topo.get(), &f.profile);
  const StepMetrics m = sys->RunStep(SkewedStep(o.model, 8));
  EXPECT_GT(m.tokens_dropped, 0);
  EXPECT_LT(m.token_efficiency, 1.0);
  EXPECT_GT(m.token_efficiency, 0.0);
  EXPECT_EQ(sys->name(), "DeepSpeed");
}

TEST(ExpertParallelTest, NoCapacityNoDrops) {
  TestEnv f = TestEnv::Make();
  StaticLayoutOptions o;
  o.admission = StaticAdmission::kCapacity;
  o.model = SmallModel();
  o.num_gpus = 8;
  o.capacity_factor = 0.0;  // disabled
  auto sys = *StaticLayoutSystem::Create(o, f.topo.get(), &f.profile);
  const StepMetrics m = sys->RunStep(SkewedStep(o.model, 8));
  EXPECT_EQ(m.tokens_dropped, 0);
  EXPECT_DOUBLE_EQ(m.token_efficiency, 1.0);
}

TEST(ExpertParallelTest, CapacityCapsStepTime) {
  // With capacity 1.0 the hot expert computes at most cap tokens: the
  // capped step must be faster than the uncapped one.
  TestEnv f1 = TestEnv::Make();
  TestEnv f2 = TestEnv::Make();
  StaticLayoutOptions capped;
  capped.admission = StaticAdmission::kCapacity;
  capped.model = SmallModel();
  capped.num_gpus = 8;
  capped.capacity_factor = 1.0;
  StaticLayoutOptions uncapped = capped;
  uncapped.capacity_factor = 0.0;
  auto sys_c =
      *StaticLayoutSystem::Create(capped, f1.topo.get(), &f1.profile);
  auto sys_u =
      *StaticLayoutSystem::Create(uncapped, f2.topo.get(), &f2.profile);
  const StepMetrics mc = sys_c->RunStep(SkewedStep(capped.model, 8));
  const StepMetrics mu = sys_u->RunStep(SkewedStep(capped.model, 8));
  EXPECT_LT(mc.step_seconds, mu.step_seconds);
}

TEST(ExpertParallelTest, RejectsNonFiniteCapacity) {
  TestEnv f = TestEnv::Make();
  StaticLayoutOptions o;
  o.model = SmallModel();
  o.num_gpus = 8;
  for (double factor : {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()}) {
    o.capacity_factor = factor;
    const auto sys = StaticLayoutSystem::Create(o, f.topo.get(), &f.profile);
    ASSERT_FALSE(sys.ok()) << factor;
    EXPECT_EQ(sys.status().code(), StatusCode::kInvalidArgument) << factor;
  }
}

TEST(ExpertParallelTest, HugeCapacityKeepsEveryToken) {
  // A finite factor whose capacity overflows int64 keeps every token, in
  // training and in serving.
  TestEnv f = TestEnv::Make();
  StaticLayoutOptions o;
  o.model = SmallModel();
  o.num_gpus = 8;
  o.capacity_factor = 1e18;
  auto sys = *StaticLayoutSystem::Create(o, f.topo.get(), &f.profile);
  const StepMetrics train = sys->RunStep(SkewedStep(o.model, 8));
  EXPECT_EQ(train.tokens_dropped, 0);
  EXPECT_DOUBLE_EQ(train.token_efficiency, 1.0);
  const StepMetrics serve = sys->ServeMicrobatch(SkewedStep(o.model, 8));
  EXPECT_EQ(serve.tokens_dropped, 0);
  EXPECT_EQ(serve.tokens_recirculated, 0);
}

TEST(FasterMoETest, ShadowsHotExperts) {
  TestEnv f = TestEnv::Make();
  StaticLayoutOptions o;
  o.admission = StaticAdmission::kShadow;
  o.model = SmallModel();
  o.num_gpus = 8;
  auto sys = *StaticLayoutSystem::Create(o, f.topo.get(), &f.profile);
  sys->RunStep(SkewedStep(o.model, 8));
  ASSERT_EQ(sys->last_shadows().size(), 2u);
  // The hot expert 0 must be shadowed in every layer.
  for (const auto& shadows : sys->last_shadows()) {
    ASSERT_FALSE(shadows.empty());
    EXPECT_EQ(shadows.front(), 0);
  }
  EXPECT_EQ(sys->name(), "FasterMoE");
}

TEST(FasterMoETest, NoShadowsWhenBalanced) {
  TestEnv f = TestEnv::Make();
  StaticLayoutOptions o;
  o.admission = StaticAdmission::kShadow;
  o.model = SmallModel();
  o.num_gpus = 8;
  auto sys = *StaticLayoutSystem::Create(o, f.topo.get(), &f.profile);
  std::vector<Assignment> balanced;
  for (int l = 0; l < o.model.num_moe_layers; ++l) {
    Assignment a(o.model.num_experts, 8);
    for (int e = 0; e < o.model.num_experts; ++e) {
      for (int g = 0; g < 8; ++g) a.set(e, g, 256);
    }
    balanced.push_back(std::move(a));
  }
  sys->RunStep(balanced);
  for (const auto& shadows : sys->last_shadows()) {
    EXPECT_TRUE(shadows.empty());
  }
}

TEST(FasterMoETest, NeverDropsAndBeatsUncappedEpOnSkew) {
  TestEnv f1 = TestEnv::Make();
  TestEnv f2 = TestEnv::Make();
  const ModelConfig model = SmallModel();
  StaticLayoutOptions fo;
  fo.admission = StaticAdmission::kShadow;
  fo.model = model;
  fo.num_gpus = 8;
  StaticLayoutOptions eo;
  eo.admission = StaticAdmission::kCapacity;
  eo.model = model;
  eo.num_gpus = 8;
  eo.capacity_factor = 0.0;  // uncapped EP: no drops, full imbalance
  auto faster = *StaticLayoutSystem::Create(fo, f1.topo.get(), &f1.profile);
  auto ep = *StaticLayoutSystem::Create(eo, f2.topo.get(), &f2.profile);
  const StepMetrics mf = faster->RunStep(SkewedStep(model, 8));
  const StepMetrics me = ep->RunStep(SkewedStep(model, 8));
  EXPECT_EQ(mf.tokens_dropped, 0);
  EXPECT_DOUBLE_EQ(mf.token_efficiency, 1.0);
  // Shadowing the hot expert must beat centralizing it.
  EXPECT_LT(mf.step_seconds, me.step_seconds);
}

TEST(SwipeRebalanceTest, StrictBalanceAndConservation) {
  Assignment a(4, 2);
  a.set(0, 0, 700);
  a.set(0, 1, 100);
  a.set(1, 0, 100);
  a.set(2, 1, 60);
  a.set(3, 0, 40);
  const SwipeRebalance rb = RebalanceStrict(a);
  EXPECT_EQ(rb.balanced.Total(), a.Total());
  const int64_t cap = (a.Total() + 3) / 4;
  for (int e = 0; e < 4; ++e) {
    EXPECT_LE(rb.balanced.ExpertTotal(e), cap + 1) << e;
  }
  EXPECT_GT(rb.reassigned, 0);
}

TEST(SwipeRebalanceTest, NoReassignmentWhenBalanced) {
  Assignment a(4, 2);
  for (int e = 0; e < 4; ++e) {
    a.set(e, 0, 100);
    a.set(e, 1, 100);
  }
  const SwipeRebalance rb = RebalanceStrict(a);
  EXPECT_EQ(rb.reassigned, 0);
  EXPECT_EQ(rb.balanced.Total(), a.Total());
}

TEST(SwipeSystemTest, HighExpertEfficiencyLowTokenEfficiency) {
  TestEnv f = TestEnv::Make();
  StaticLayoutOptions o;
  o.admission = StaticAdmission::kStrictRebalance;
  o.model = SmallModel();
  o.num_gpus = 8;
  auto sys = *StaticLayoutSystem::Create(o, f.topo.get(), &f.profile);
  const StepMetrics m = sys->RunStep(SkewedStep(o.model, 8));
  // Strict balance: near-perfect expert efficiency...
  EXPECT_GT(m.expert_efficiency, 0.9);
  EXPECT_LT(m.balance_ratio, 1.1);
  // ...at the price of re-routed tokens.
  EXPECT_LT(m.token_efficiency, 0.9);
  EXPECT_EQ(m.tokens_dropped, 0);  // processed, just by the wrong expert
  EXPECT_EQ(sys->name(), "SWIPE");
}

// GPU utilization counts expert compute and non-MoE compute as useful
// work, never the data-parallel AllReduce of the non-MoE gradients. On a
// two-node cell that AllReduce crosses the slow inter-node links, so
// counting it would lift a static layout's utilization far above its real
// work. Every assignment here keeps its expert (no capacity), so each
// (expert, layer) runs one forward and one backward kernel on its host.
TEST(ExpertParallelTest, UtilizationExcludesDataParallelSync) {
  TestEnv f = TestEnv::MakeGrid(2, 4);
  StaticLayoutOptions o;
  o.admission = StaticAdmission::kCapacity;
  o.model = SmallModel();
  o.num_gpus = 8;
  o.capacity_factor = 0.0;
  auto sys = *StaticLayoutSystem::Create(o, f.topo.get(), &f.profile);
  const std::vector<Assignment> step = SkewedStep(o.model, 8);
  const StepMetrics m = sys->RunStep(step);

  const double fwd_flops = o.model.expert_fwd_flops_per_token();
  const double bwd_flops = o.model.expert_fwdbwd_flops_per_token() - fwd_flops;
  double expert_compute = 0.0;
  for (const Assignment& a : step) {
    for (int e = 0; e < o.model.num_experts; ++e) {
      int64_t tokens = 0;
      for (int g = 0; g < 8; ++g) tokens += a.at(e, g);
      expert_compute +=
          f.profile.ComputeSeconds(static_cast<double>(tokens), fwd_flops) +
          f.profile.ComputeSeconds(static_cast<double>(tokens), bwd_flops);
    }
  }
  const double useful =
      expert_compute / 8.0 + NonMoEComputeSeconds(o.model, f.profile);
  ASSERT_GT(m.step_seconds, 0.0);
  EXPECT_LE(m.gpu_utilization, useful / m.step_seconds * (1.0 + 1e-9));
  EXPECT_GT(m.gpu_utilization, 0.0);
}

TEST(BaselineComparisonTest, EfficiencyQuadrantsOfFigure7a) {
  // On a realistic skewed trace: DeepSpeed loses tokens AND expert
  // efficiency; SWIPE keeps expert efficiency but loses token efficiency;
  // FasterMoE keeps token efficiency with middling expert efficiency.
  TestEnv fd = TestEnv::Make();
  TestEnv fs = TestEnv::Make();
  TestEnv ff = TestEnv::Make();
  const ModelConfig model = SmallModel();

  TraceGeneratorOptions t;
  t.num_experts = model.num_experts;
  t.num_moe_layers = model.num_moe_layers;
  t.num_gpus = 8;
  t.tokens_per_gpu = model.tokens_per_gpu;
  t.seed = 11;
  TraceGenerator gen = *TraceGenerator::Create(t);

  StaticLayoutOptions eo;
  eo.admission = StaticAdmission::kCapacity;
  eo.model = model;
  eo.num_gpus = 8;
  StaticLayoutOptions so;
  so.admission = StaticAdmission::kStrictRebalance;
  so.model = model;
  so.num_gpus = 8;
  StaticLayoutOptions fo;
  fo.admission = StaticAdmission::kShadow;
  fo.model = model;
  fo.num_gpus = 8;
  auto ds = *StaticLayoutSystem::Create(eo, fd.topo.get(), &fd.profile);
  auto sw = *StaticLayoutSystem::Create(so, fs.topo.get(), &fs.profile);
  auto fm = *StaticLayoutSystem::Create(fo, ff.topo.get(), &ff.profile);

  for (int s = 0; s < 10; ++s) {
    const auto step = gen.Step();
    ds->RunStep(step);
    sw->RunStep(step);
    fm->RunStep(step);
  }
  const double ds_tok = ds->stats().MeanTokenEfficiency();
  const double sw_tok = sw->stats().MeanTokenEfficiency();
  const double fm_tok = fm->stats().MeanTokenEfficiency();
  const double sw_exp = sw->stats().MeanExpertEfficiency();
  const double ds_exp = ds->stats().MeanExpertEfficiency();

  EXPECT_LT(ds_tok, 0.9);          // DeepSpeed drops
  EXPECT_DOUBLE_EQ(fm_tok, 1.0);   // FasterMoE never drops
  EXPECT_LT(sw_tok, 1.0);          // SWIPE re-routes
  EXPECT_GT(sw_exp, ds_exp);       // SWIPE balances better than DeepSpeed
}

}  // namespace
}  // namespace flexmoe
