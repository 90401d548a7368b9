// Statistical and determinism tests for the RNG and distributions.

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"
#include "util/stats.h"

namespace flexmoe {
namespace {

TEST(RngTest, DeterministicBySeed) {
  Rng a(123), b(123), c(124);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMean) {
  Rng rng(2);
  RunningStat st;
  for (int i = 0; i < 100000; ++i) st.Add(rng.Uniform());
  EXPECT_NEAR(st.mean(), 0.5, 0.01);
  EXPECT_NEAR(st.variance(), 1.0 / 12.0, 0.005);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(3);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) {
    const uint64_t v = rng.UniformInt(7);
    ASSERT_LT(v, 7u);
    ++counts[static_cast<size_t>(v)];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(RngTest, NormalMoments) {
  Rng rng(4);
  RunningStat st;
  for (int i = 0; i < 200000; ++i) st.Add(rng.Normal());
  EXPECT_NEAR(st.mean(), 0.0, 0.02);
  EXPECT_NEAR(st.stddev(), 1.0, 0.02);
}

TEST(RngTest, NormalScaled) {
  Rng rng(5);
  RunningStat st;
  for (int i = 0; i < 100000; ++i) st.Add(rng.Normal(10.0, 3.0));
  EXPECT_NEAR(st.mean(), 10.0, 0.05);
  EXPECT_NEAR(st.stddev(), 3.0, 0.05);
}

TEST(RngTest, GumbelMoments) {
  // Gumbel(0,1): mean = Euler-Mascheroni, var = pi^2/6.
  Rng rng(6);
  RunningStat st;
  for (int i = 0; i < 200000; ++i) st.Add(rng.Gumbel());
  EXPECT_NEAR(st.mean(), 0.5772, 0.02);
  EXPECT_NEAR(st.variance(), M_PI * M_PI / 6.0, 0.05);
}

TEST(RngTest, PoissonMean) {
  Rng rng(7);
  for (double lambda : {0.5, 5.0, 50.0, 200.0}) {
    RunningStat st;
    for (int i = 0; i < 20000; ++i) {
      st.Add(static_cast<double>(rng.Poisson(lambda)));
    }
    EXPECT_NEAR(st.mean(), lambda, lambda * 0.05 + 0.05) << lambda;
  }
}

TEST(RngTest, BinomialMeanAndBounds) {
  Rng rng(8);
  for (const auto& [n, p] : std::vector<std::pair<int64_t, double>>{
           {10, 0.3}, {1000, 0.01}, {1000, 0.99}, {100000, 0.5}}) {
    RunningStat st;
    for (int i = 0; i < 5000; ++i) {
      const int64_t k = rng.Binomial(n, p);
      ASSERT_GE(k, 0);
      ASSERT_LE(k, n);
      st.Add(static_cast<double>(k));
    }
    const double mean = static_cast<double>(n) * p;
    EXPECT_NEAR(st.mean(), mean, std::max(0.3, mean * 0.05)) << n << " " << p;
  }
}

TEST(RngTest, BinomialEdgeCases) {
  Rng rng(9);
  EXPECT_EQ(rng.Binomial(0, 0.5), 0);
  EXPECT_EQ(rng.Binomial(100, 0.0), 0);
  EXPECT_EQ(rng.Binomial(100, 1.0), 100);
}

TEST(RngTest, MultinomialConservesTotal) {
  Rng rng(10);
  const double probs[4] = {0.1, 0.5, 0.25, 0.15};
  int64_t counts[4];
  for (int trial = 0; trial < 100; ++trial) {
    rng.MultinomialInto(1000, probs, 4, counts);
    int64_t total = 0;
    for (int64_t c : counts) {
      EXPECT_GE(c, 0);
      total += c;
    }
    EXPECT_EQ(total, 1000);
  }
}

TEST(RngTest, MultinomialMeans) {
  Rng rng(11);
  const double probs[3] = {0.7, 0.2, 0.1};
  std::vector<double> sums(3, 0.0);
  int64_t counts[3];
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    rng.MultinomialInto(100, probs, 3, counts);
    for (size_t i = 0; i < 3; ++i) sums[i] += static_cast<double>(counts[i]);
  }
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(sums[i] / trials, 100 * probs[i], 1.0) << i;
  }
}

TEST(RngTest, MultinomialUnnormalizedWeights) {
  Rng rng(12);
  const double weights[2] = {2.0, 2.0};  // sums to 4, not 1
  int64_t counts[2];
  rng.MultinomialInto(1000, weights, 2, counts);
  EXPECT_EQ(counts[0] + counts[1], 1000);
  EXPECT_NEAR(static_cast<double>(counts[0]), 500.0, 80.0);
}

TEST(ZipfTest, UniformWhenSZero) {
  ZipfDistribution z(10, 0.0);
  for (size_t r = 0; r < 10; ++r) EXPECT_NEAR(z.pmf(r), 0.1, 1e-12);
}

TEST(ZipfTest, SkewedMassOrdering) {
  ZipfDistribution z(100, 1.2);
  for (size_t r = 1; r < 100; ++r) EXPECT_LT(z.pmf(r), z.pmf(r - 1));
  double total = 0.0;
  for (size_t r = 0; r < 100; ++r) total += z.pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, SampleMatchesPmf) {
  ZipfDistribution z(5, 1.0);
  Rng rng(16);
  std::vector<int> counts(5, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[z.Sample(&rng)];
  for (size_t r = 0; r < 5; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / n, z.pmf(r), 0.01) << r;
  }
}

}  // namespace
}  // namespace flexmoe
