// Tests for the Top-K gate, capacity enforcement, and the Assignment type.

#include <gtest/gtest.h>

#include <cmath>

#include "gate/capacity.h"
#include "gate/gate.h"
#include "util/rng.h"

namespace flexmoe {
namespace {

TEST(SoftmaxTest, UniformAndStability) {
  const auto u = Softmax({1.0, 1.0, 1.0, 1.0});
  for (double p : u) EXPECT_NEAR(p, 0.25, 1e-12);
  // Large logits must not overflow.
  const auto big = Softmax({1000.0, 999.0});
  EXPECT_NEAR(big[0] + big[1], 1.0, 1e-12);
  EXPECT_GT(big[0], big[1]);
}

TEST(AssignmentTest, AccessorsAndTotals) {
  Assignment a(3, 2);
  a.set(0, 0, 5);
  a.add(0, 0, 2);
  a.set(2, 1, 10);
  EXPECT_EQ(a.at(0, 0), 7);
  EXPECT_EQ(a.ExpertTotal(0), 7);
  EXPECT_EQ(a.ExpertTotal(1), 0);
  EXPECT_EQ(a.GpuTotal(1), 10);
  EXPECT_EQ(a.Total(), 17);
  const auto loads = a.ExpertLoads();
  EXPECT_EQ(loads[2], 10.0);
  EXPECT_TRUE(a.Validate().ok());
}

TEST(GateOptionsTest, Validation) {
  TopKGateOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.top_k = 100;
  o.num_experts = 8;
  EXPECT_FALSE(o.Validate().ok());
  o = TopKGateOptions{};
  o.tokens_per_gpu = 0;
  EXPECT_FALSE(o.Validate().ok());
}

std::vector<std::vector<double>> UniformLogits(int gpus, int experts) {
  return std::vector<std::vector<double>>(
      static_cast<size_t>(gpus),
      std::vector<double>(static_cast<size_t>(experts), 0.0));
}

TEST(TopKGateTest, ConservesTokenAssignments) {
  TopKGateOptions o;
  o.num_experts = 16;
  o.num_gpus = 4;
  o.top_k = 2;
  o.tokens_per_gpu = 1024;
  const TopKGate gate = *TopKGate::Create(o);
  Rng rng(1);
  const Assignment a = gate.Sample(UniformLogits(4, 16), &rng);
  EXPECT_EQ(a.Total(), 4 * 1024 * 2);
  for (int g = 0; g < 4; ++g) EXPECT_EQ(a.GpuTotal(g), 1024 * 2);
}

TEST(TopKGateTest, ExactModeConservesToo) {
  TopKGateOptions o;
  o.num_experts = 8;
  o.num_gpus = 2;
  o.top_k = 2;
  o.tokens_per_gpu = 256;
  o.exact_sampling = true;
  const TopKGate gate = *TopKGate::Create(o);
  Rng rng(2);
  const Assignment a = gate.Sample(UniformLogits(2, 8), &rng);
  EXPECT_EQ(a.Total(), 2 * 256 * 2);
}

TEST(TopKGateTest, SkewedLogitsSkewCounts) {
  TopKGateOptions o;
  o.num_experts = 4;
  o.num_gpus = 1;
  o.top_k = 1;
  o.tokens_per_gpu = 10000;
  const TopKGate gate = *TopKGate::Create(o);
  std::vector<std::vector<double>> logits = {{2.0, 0.0, 0.0, 0.0}};
  Rng rng(3);
  const Assignment a = gate.Sample(logits, &rng);
  // Expert 0 has softmax probability e^2 / (e^2 + 3) ~ 0.711.
  EXPECT_NEAR(static_cast<double>(a.ExpertTotal(0)), 7110.0, 300.0);
}

TEST(TopKGateTest, MultinomialApproximatesExactTop2) {
  // The count-level approximation must agree with exact Gumbel top-2 on
  // aggregate expert shares at realistic skew.
  TopKGateOptions base;
  base.num_experts = 16;
  base.num_gpus = 1;
  base.top_k = 2;
  base.tokens_per_gpu = 20000;

  std::vector<std::vector<double>> logits(1);
  Rng lrng(4);
  logits[0].resize(16);
  for (double& z : logits[0]) z = lrng.Normal(0.0, 1.2);

  TopKGateOptions exact = base;
  exact.exact_sampling = true;
  Rng r1(5), r2(5);
  const Assignment fast = (*TopKGate::Create(base)).Sample(logits, &r1);
  const Assignment slow = (*TopKGate::Create(exact)).Sample(logits, &r2);

  for (int e = 0; e < 16; ++e) {
    const double pf = static_cast<double>(fast.ExpertTotal(e)) /
                      static_cast<double>(fast.Total());
    const double ps = static_cast<double>(slow.ExpertTotal(e)) /
                      static_cast<double>(slow.Total());
    EXPECT_NEAR(pf, ps, 0.035) << e;  // within 3.5 share points
  }
}

// --- Capacity enforcement ------------------------------------------------

Assignment SkewedAssignment() {
  // 4 experts, 2 GPUs; expert 0 heavily overloaded.
  Assignment a(4, 2);
  a.set(0, 0, 600);
  a.set(0, 1, 200);
  a.set(1, 0, 100);
  a.set(2, 1, 60);
  a.set(3, 0, 20);
  a.set(3, 1, 20);
  return a;  // total 1000, uniform cap at factor 1.0 = 250
}

TEST(CapacityTest, NoDropsWhenBalanced) {
  Assignment a(4, 1);
  for (int e = 0; e < 4; ++e) a.set(e, 0, 100);
  const CapacityResult r = ApplyCapacity(a, 1.0);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_EQ(r.kept.Total(), 400);
  EXPECT_DOUBLE_EQ(r.TokenEfficiency(), 1.0);
}

TEST(CapacityTest, DropsExactOverflow) {
  const Assignment a = SkewedAssignment();
  const CapacityResult r = ApplyCapacity(a, 1.0);
  EXPECT_EQ(r.capacity_per_expert, 250);
  // Expert 0 had 800, keeps 250 -> drops 550.
  EXPECT_EQ(r.dropped, 550);
  EXPECT_EQ(r.kept.ExpertTotal(0), 250);
  EXPECT_EQ(r.kept.Total(), 450);
  EXPECT_NEAR(r.TokenEfficiency(), 0.45, 1e-12);
}

TEST(CapacityTest, KeepsProportionalPerSource) {
  const Assignment a = SkewedAssignment();
  const CapacityResult r = ApplyCapacity(a, 1.0);
  // Expert 0: sources 600/200; kept 250 split ~ 187/63 (proportional).
  const int64_t k0 = r.kept.at(0, 0);
  const int64_t k1 = r.kept.at(0, 1);
  EXPECT_EQ(k0 + k1, 250);
  EXPECT_NEAR(static_cast<double>(k0), 187.5, 1.0);
}

TEST(CapacityTest, NeverExceedsOriginalCell) {
  const Assignment a = SkewedAssignment();
  const CapacityResult r = ApplyCapacity(a, 1.0);
  for (int e = 0; e < 4; ++e) {
    for (int g = 0; g < 2; ++g) {
      EXPECT_LE(r.kept.at(e, g), a.at(e, g));
    }
  }
}

TEST(CapacityTest, LargeFactorDropsNothing) {
  const Assignment a = SkewedAssignment();
  const CapacityResult r = ApplyCapacity(a, 8.0);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_EQ(r.kept.Total(), a.Total());
}

TEST(CapacityTest, HugeFactorClampsToLayerTotal) {
  // Factors whose capacity overflows int64 clamp to the layer total, which
  // already keeps every token.
  const Assignment a = SkewedAssignment();
  for (double factor : {1e18, 1e300}) {
    const CapacityResult r = ApplyCapacity(a, factor);
    EXPECT_EQ(r.capacity_per_expert, a.Total()) << factor;
    EXPECT_EQ(r.dropped, 0) << factor;
    EXPECT_EQ(r.kept.Total(), a.Total()) << factor;
  }
}

TEST(CapacityTest, SmallFactorDropsAggressively) {
  const Assignment a = SkewedAssignment();
  const CapacityResult r = ApplyCapacity(a, 0.5);
  EXPECT_EQ(r.capacity_per_expert, 125);
  EXPECT_GT(r.dropped, 550);
  EXPECT_LT(r.TokenEfficiency(), 0.45);
}

TEST(CapacityTest, PropertyConservationRandomized) {
  Rng rng(6);
  for (int trial = 0; trial < 40; ++trial) {
    Assignment a(8, 4);
    for (int e = 0; e < 8; ++e) {
      for (int g = 0; g < 4; ++g) {
        a.set(e, g, static_cast<int64_t>(rng.UniformInt(500)));
      }
    }
    const double cf = rng.Uniform(0.3, 2.0);
    const CapacityResult r = ApplyCapacity(a, cf);
    EXPECT_EQ(r.kept.Total() + r.dropped, a.Total()) << trial;
    for (int e = 0; e < 8; ++e) {
      EXPECT_LE(r.kept.ExpertTotal(e), r.capacity_per_expert) << trial;
    }
  }
}

}  // namespace
}  // namespace flexmoe
