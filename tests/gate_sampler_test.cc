// Tests for the gate's count-level multinomial sampler against the
// analytic routing distribution: its expert totals must reproduce the
// top-2 marginal of without-replacement sampling (chi-squared against the
// closed form, not against another sampler), and its softmax must be
// bit-identical to the vector form.
//
// The sampler's stream itself is pinned bit-for-bit by every golden's
// trace hash (tests/goldens/).

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

// With 15 degrees of freedom, chi2 < 40 holds with overwhelming
// probability for the right distribution (p ~ 4e-4 at 40). The multinomial
// draw costs O(E) whatever the token count, so it runs at 400,000 tokens:
// enough that a round 2 drawn from the softmax instead of the second-choice
// marginal lands far above the bound.
TEST(GateSamplerTest, MultinomialChiSquaredVsAnalyticMarginal) {
  const auto logits = SkewedLogits(1, 16, 14);
  TopKGateOptions o;
  o.num_experts = 16;
  o.num_gpus = 1;
  o.top_k = 2;
  o.tokens_per_gpu = 400000;
  Rng r(999);
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
