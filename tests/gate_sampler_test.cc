// Tests for the gate's two samplers against the analytic routing
// distribution:
//
//  * both the count-level multinomial and the alias-table exact path must
//    reproduce the top-2 marginal of without-replacement sampling
//    (chi-squared against the closed form, not against another sampler);
//  * the exact path conserves tokens, never picks an expert twice per
//    token, and is seeded-deterministic;
//  * top_k > 8 falls back to the per-token Gumbel sweep, which must also
//    give every token top_k distinct experts.
//
// The default multinomial stream itself is pinned bit-for-bit by every
// golden's trace hash (tests/goldens/).

#include <gtest/gtest.h>

#include <vector>

#include "gate/gate.h"
#include "util/rng.h"

namespace flexmoe {
namespace {

std::vector<std::vector<double>> SkewedLogits(int gpus, int experts,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> logits(
      static_cast<size_t>(gpus),
      std::vector<double>(static_cast<size_t>(experts)));
  for (auto& row : logits) {
    for (double& z : row) z = rng.Normal(0.0, 1.2);
  }
  return logits;
}

TopKGateOptions BaseOptions(bool exact) {
  TopKGateOptions o;
  o.num_experts = 16;
  o.num_gpus = 4;
  o.top_k = 2;
  o.tokens_per_gpu = 2048;
  o.exact_sampling = exact;
  return o;
}

bool Identical(const Assignment& a, const Assignment& b) {
  if (a.num_experts() != b.num_experts() || a.num_gpus() != b.num_gpus()) {
    return false;
  }
  for (int e = 0; e < a.num_experts(); ++e) {
    for (int g = 0; g < a.num_gpus(); ++g) {
      if (a.at(e, g) != b.at(e, g)) return false;
    }
  }
  return true;
}

// Pearson chi-squared of one GPU's expert totals against the analytic top-2
// marginal: expert e lands in a token's top 2 with probability
//   q_e = p_e + p_e * (S - p_e / (1 - p_e)),  S = sum_f p_f / (1 - p_f),
// so its expected count is tokens * q_e (the q_e sum to 2).
double ChiSquaredVsTopTwoMarginal(const Assignment& got,
                                  const std::vector<double>& logits,
                                  int64_t tokens) {
  const std::vector<double> p = Softmax(logits);
  double s = 0.0;
  for (double pf : p) s += pf / (1.0 - pf);
  double chi2 = 0.0;
  for (size_t e = 0; e < p.size(); ++e) {
    const double q = p[e] + p[e] * (s - p[e] / (1.0 - p[e]));
    const double expected = static_cast<double>(tokens) * q;
    const double diff =
        static_cast<double>(got.ExpertTotal(static_cast<int>(e))) - expected;
    chi2 += diff * diff / expected;
  }
  return chi2;
}

TEST(GateSamplerTest, ExactConservesAndIsDeterministic) {
  const auto logits = SkewedLogits(4, 16, 12);
  const TopKGate fast = *TopKGate::Create(BaseOptions(true));
  Rng r1(7), r2(7);
  const Assignment a = fast.Sample(logits, &r1);
  const Assignment b = fast.Sample(logits, &r2);
  // Seeded determinism and exact token conservation (top_k per token).
  EXPECT_TRUE(Identical(a, b));
  EXPECT_EQ(a.Total(), 4 * 2048 * 2);
  for (int g = 0; g < 4; ++g) EXPECT_EQ(a.GpuTotal(g), 2048 * 2);
}

TEST(GateSamplerTest, ExactTopKLargerThanTwoConserves) {
  TopKGateOptions o = BaseOptions(true);
  o.top_k = 4;
  o.tokens_per_gpu = 512;
  const auto logits = SkewedLogits(4, 16, 13);
  Rng r1(9);
  const Assignment a = (*TopKGate::Create(o)).Sample(logits, &r1);
  EXPECT_EQ(a.Total(), 4 * 512 * 4);
}

TEST(GateSamplerTest, ExactNeverPicksSameExpertTwicePerToken) {
  // With top_k == num_experts every token must pick every expert exactly
  // once — any duplicate pick would break this. top_k = 6 runs the
  // alias-table sampler; top_k = 10 > 8 takes the per-token Gumbel sweep.
  for (const int k : {6, 10}) {
    TopKGateOptions o;
    o.num_experts = k;
    o.num_gpus = 2;
    o.top_k = k;
    o.tokens_per_gpu = 300;
    o.exact_sampling = true;
    const TopKGate gate = *TopKGate::Create(o);
    const auto logits = SkewedLogits(2, k, 17);
    Rng r(5);
    const Assignment a = gate.Sample(logits, &r);
    for (int e = 0; e < k; ++e) {
      for (int g = 0; g < 2; ++g) {
        EXPECT_EQ(a.at(e, g), 300) << "top_k " << k << " expert " << e;
      }
    }
  }
}

// With 15 degrees of freedom, chi2 < 40 holds with overwhelming
// probability for the right distribution (p ~ 4e-4 at 40). The multinomial
// draw costs O(E) whatever the token count, so it runs at 400,000 tokens:
// enough that a round 2 drawn from the softmax instead of the second-choice
// marginal lands far above the bound.
TEST(GateSamplerTest, MultinomialChiSquaredVsAnalyticMarginal) {
  const auto logits = SkewedLogits(1, 16, 14);
  TopKGateOptions o = BaseOptions(false);
  o.num_gpus = 1;
  o.tokens_per_gpu = 400000;
  Rng r(999);
  const Assignment got = (*TopKGate::Create(o)).Sample(logits, &r);
  EXPECT_LT(ChiSquaredVsTopTwoMarginal(got, logits[0], o.tokens_per_gpu),
            40.0);
}

TEST(GateSamplerTest, ExactChiSquaredVsAnalyticMarginal) {
  const auto logits = SkewedLogits(1, 16, 15);
  TopKGateOptions o = BaseOptions(true);
  o.num_gpus = 1;
  o.tokens_per_gpu = 50000;
  Rng r(888);
  const Assignment got = (*TopKGate::Create(o)).Sample(logits, &r);
  EXPECT_LT(ChiSquaredVsTopTwoMarginal(got, logits[0], o.tokens_per_gpu),
            40.0);
}

TEST(GateSamplerTest, SoftmaxIntoMatchesVectorSoftmax) {
  const std::vector<double> logits = {0.3, -1.2, 5.0, 0.0, 2.5};
  const std::vector<double> expect = Softmax(logits);
  std::vector<double> got(logits.size());
  SoftmaxInto(logits.data(), static_cast<int>(logits.size()), got.data());
  for (size_t i = 0; i < logits.size(); ++i) {
    EXPECT_EQ(expect[i], got[i]);  // bit-identical, not just near
  }
}

}  // namespace
}  // namespace flexmoe
