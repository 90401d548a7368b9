// Tests for the synthetic routing-trace generator: the paper's Section 2.4
// observations (skewness, smooth fluctuation, balance-loss pressure) must
// hold on generated traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "gate/routing_trace.h"
#include "gate/trace_generator.h"
#include "test_env.h"
#include "util/stats.h"

namespace flexmoe {
namespace {

TraceGeneratorOptions SmallOptions() {
  TraceGeneratorOptions o;
  o.num_experts = 64;
  o.num_moe_layers = 2;
  o.num_gpus = 8;
  o.tokens_per_gpu = 4096;
  o.seed = 7;
  return o;
}

TEST(TraceGeneratorOptionsTest, Validation) {
  TraceGeneratorOptions o = SmallOptions();
  EXPECT_TRUE(o.Validate().ok());
  o.balance_coef = -0.1;
  EXPECT_FALSE(o.Validate().ok());

  // One case per field that used to reach an abort in Create or Step, or a
  // silent default: each is an InvalidArgument that Create returns.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const auto rejects = [](const std::function<void(TraceGeneratorOptions*)>&
                              mutate) {
    TraceGeneratorOptions bad = SmallOptions();
    mutate(&bad);
    return bad.Validate().code() == StatusCode::kInvalidArgument &&
           TraceGenerator::Create(bad).status().code() ==
               StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(rejects([&](auto* b) { b->logit_sigma = nan; }));
  EXPECT_TRUE(rejects([](auto* b) { b->logit_sigma = -0.1; }));
  EXPECT_TRUE(rejects([&](auto* b) { b->balance_coef = inf; }));
  EXPECT_TRUE(rejects([](auto* b) { b->top_k = 65; }));

  // The closed ends of each range stay valid.
  o = SmallOptions();
  o.logit_sigma = 0.0;
  o.balance_coef = 0.0;
  o.top_k = o.num_experts;
  EXPECT_TRUE(o.Validate().ok());
}

// The calibration as it was before it drew its normals once: every
// bisection step re-seeds Rng(seed), re-draws the kTrials x E logits and
// sorts each trial's softmax. Kept verbatim as the bitwise reference.
double ReferenceCalibrateLogitSigma(int num_experts, int top_count,
                                    double target_share, uint64_t seed) {
  const double uniform_share =
      static_cast<double>(top_count) / static_cast<double>(num_experts);
  if (target_share <= uniform_share) return 0.0;

  auto mean_topk_share = [&](double sigma) {
    Rng rng(seed);
    constexpr int kTrials = 256;
    double acc = 0.0;
    std::vector<double> logits(static_cast<size_t>(num_experts));
    for (int trial = 0; trial < kTrials; ++trial) {
      for (double& z : logits) z = rng.Normal(0.0, sigma);
      std::vector<double> probs = Softmax(logits);
      std::sort(probs.begin(), probs.end(), std::greater<double>());
      double share = 0.0;
      for (int i = 0; i < top_count; ++i) share += probs[static_cast<size_t>(i)];
      acc += share;
    }
    return acc / kTrials;
  };

  // Share is monotone in sigma: binary search.
  double lo = 0.0, hi = 8.0;
  for (int iter = 0; iter < 48; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (mean_topk_share(mid) < target_share) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

struct CalibrationKey {
  int num_experts;
  int top_count;
  double share;
  uint64_t seed;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(CalibrateLogitSigmaTest, BitwiseEqualToPerStepBisection) {
  const CalibrationKey keys[] = {
      {32, 5, 0.75, 5},   {64, 10, 0.75, 11}, {8, 1, 0.75, 3},
      {100, 7, 0.9, 123},
      {512, 80, 0.75, 5},  // the large-ep preset's key
      {64, 32, 0.5, 1},    // early out: target at the uniform share
      {16, 16, 1.0, 2},    // early out: every expert in the top set
  };
  for (const CalibrationKey& k : keys) {
    const double got =
        CalibrateLogitSigma(k.num_experts, k.top_count, k.share, k.seed);
    const double want = ReferenceCalibrateLogitSigma(k.num_experts,
                                                     k.top_count, k.share,
                                                     k.seed);
    EXPECT_TRUE(SameBits(got, want))
        << "E=" << k.num_experts << " top=" << k.top_count
        << " share=" << k.share << " seed=" << k.seed << ": " << got
        << " vs " << want;
  }
}

// The process-wide memo under concurrent fills: four threads ask for a mix
// of shared and per-thread keys (none used elsewhere in this binary, so the
// threads race to fill them) and all read the serial bits.
TEST(CalibrateLogitSigmaTest, ConcurrentMemoMatchesSerial) {
  constexpr int kThreads = 4;
  const auto reference = [](const CalibrationKey& k) {
    return ReferenceCalibrateLogitSigma(k.num_experts, k.top_count, k.share,
                                        k.seed);
  };
  const CalibrationKey shared[] = {{24, 4, 0.7, 901}, {40, 6, 0.8, 902}};
  const double shared_bits[] = {reference(shared[0]), reference(shared[1])};
  std::vector<CalibrationKey> own;
  std::vector<double> own_bits;
  for (int t = 0; t < kThreads; ++t) {
    own.push_back({16 + 4 * t, 3, 0.75, 910u + t});
    own_bits.push_back(reference(own.back()));
  }

  // Thread t asks for shared[t % 2], its own key, then the other shared key.
  std::vector<std::vector<double>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const CalibrationKey& k :
           {shared[t % 2], own[t], shared[(t + 1) % 2]}) {
        results[t].push_back(
            CalibrateLogitSigma(k.num_experts, k.top_count, k.share, k.seed));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), 3u);
    EXPECT_TRUE(SameBits(results[t][0], shared_bits[t % 2])) << t;
    EXPECT_TRUE(SameBits(results[t][1], own_bits[t])) << t;
    EXPECT_TRUE(SameBits(results[t][2], shared_bits[(t + 1) % 2])) << t;
  }
}

TEST(CalibrateLogitSigmaTest, HitsTargetShare) {
  const double sigma = CalibrateLogitSigma(64, 10, 0.75, 11);
  EXPECT_GT(sigma, 0.5);
  EXPECT_LT(sigma, 5.0);
  // Verify by Monte Carlo at the calibrated sigma.
  Rng rng(12);
  double acc = 0.0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> logits(64);
    for (double& z : logits) z = rng.Normal(0.0, sigma);
    acc += TopKShare(Softmax(logits), 10);
  }
  EXPECT_NEAR(acc / trials, 0.75, 0.03);
}

TEST(CalibrateLogitSigmaTest, UniformTargetGivesZero) {
  EXPECT_EQ(CalibrateLogitSigma(64, 32, 0.5, 1), 0.0);
}

TEST(TraceGeneratorTest, DeterministicBySeed) {
  auto gen1 = *TraceGenerator::Create(SmallOptions());
  auto gen2 = *TraceGenerator::Create(SmallOptions());
  for (int s = 0; s < 3; ++s) {
    const auto a = gen1.Step();
    const auto b = gen2.Step();
    ASSERT_EQ(a.size(), b.size());
    for (size_t l = 0; l < a.size(); ++l) {
      for (int e = 0; e < a[l].num_experts(); ++e) {
        for (int g = 0; g < a[l].num_gpus(); ++g) {
          ASSERT_EQ(a[l].at(e, g), b[l].at(e, g));
        }
      }
    }
  }
}

TEST(TraceGeneratorTest, TokenConservationEveryStep) {
  auto gen = *TraceGenerator::Create(SmallOptions());
  const auto& o = gen.options();
  for (int s = 0; s < 5; ++s) {
    for (const Assignment& a : gen.Step()) {
      EXPECT_EQ(a.Total(),
                o.tokens_per_gpu * o.num_gpus * o.top_k);
    }
  }
}

TEST(TraceGeneratorTest, SkewnessMatchesFigure3a) {
  // Paper: top-10 of 64 experts receive ~75% of tokens.
  auto gen = *TraceGenerator::Create(SmallOptions());
  RunningStat top10;
  for (int s = 0; s < 40; ++s) {
    for (const Assignment& a : gen.Step()) {
      top10.Add(TopKShare(a.ExpertLoads(), 10));
    }
  }
  EXPECT_NEAR(top10.mean(), 0.75, 0.10);
}

TEST(TraceGeneratorTest, SmoothFluctuation) {
  // Consecutive steps must be strongly correlated (Fig. 3b: loads change
  // "smoothly and continuously"), yet the process must drift over long
  // horizons (routing fluctuation).
  TraceGeneratorOptions o = SmallOptions();
  o.num_moe_layers = 1;
  auto gen = *TraceGenerator::Create(o);

  std::vector<std::vector<double>> shares;
  for (int s = 0; s < 400; ++s) {
    const Assignment a = gen.Step()[0];
    std::vector<double> loads = a.ExpertLoads();
    const double total = static_cast<double>(a.Total());
    for (double& v : loads) v /= total;
    shares.push_back(std::move(loads));
  }

  auto l1_distance = [&](int i, int j) {
    double d = 0.0;
    for (size_t e = 0; e < shares[static_cast<size_t>(i)].size(); ++e) {
      d += std::abs(shares[static_cast<size_t>(i)][e] -
                    shares[static_cast<size_t>(j)][e]);
    }
    return d;
  };

  RunningStat adjacent, distant;
  for (int s = 0; s + 1 < 400; ++s) adjacent.Add(l1_distance(s, s + 1));
  for (int s = 0; s + 300 < 400; ++s) distant.Add(l1_distance(s, s + 300));
  // Long-horizon drift must dominate step-to-step jitter.
  EXPECT_GT(distant.mean(), 3.0 * adjacent.mean());
  // And step-to-step change must be small in absolute terms (smooth).
  EXPECT_LT(adjacent.mean(), 0.2);
}

TEST(TraceGeneratorTest, BalanceCoefReducesSkewOverTime) {
  TraceGeneratorOptions balanced = SmallOptions();
  balanced.balance_coef = 0.05;
  balanced.num_moe_layers = 1;
  TraceGeneratorOptions unbalanced = SmallOptions();
  unbalanced.balance_coef = 0.0;
  unbalanced.num_moe_layers = 1;

  auto gen_b = *TraceGenerator::Create(balanced);
  auto gen_u = *TraceGenerator::Create(unbalanced);
  // Run past the balance ramp (tau = 400 steps).
  RunningStat share_b, share_u;
  for (int s = 0; s < 1200; ++s) {
    const Assignment ab = gen_b.Step()[0];
    const Assignment au = gen_u.Step()[0];
    if (s >= 800) {
      share_b.Add(TopKShare(ab.ExpertLoads(), 10));
      share_u.Add(TopKShare(au.ExpertLoads(), 10));
    }
  }
  EXPECT_LT(share_b.mean(), share_u.mean() - 0.15);
}

TEST(TraceGeneratorTest, TargetSigmaRampsDown) {
  TraceGeneratorOptions o = SmallOptions();
  o.balance_coef = 0.01;
  auto gen = *TraceGenerator::Create(o);
  EXPECT_NEAR(gen.TargetSigma(0), gen.sigma0(), 1e-9);
  EXPECT_LT(gen.TargetSigma(2000), gen.sigma0());
  // Monotone decreasing toward the equilibrium.
  EXPECT_GT(gen.TargetSigma(100), gen.TargetSigma(1000));
}

TEST(TraceGeneratorTest, ZeroCoefKeepsSigma) {
  auto gen = *TraceGenerator::Create(SmallOptions());
  EXPECT_DOUBLE_EQ(gen.TargetSigma(0), gen.sigma0());
  EXPECT_DOUBLE_EQ(gen.TargetSigma(100000), gen.sigma0());
}

TEST(TraceGeneratorTest, PerGpuHeterogeneity) {
  // Different GPUs route differently for the same expert (Fig. 1b).
  auto gen = *TraceGenerator::Create(SmallOptions());
  const Assignment a = gen.Step()[0];
  bool any_diff = false;
  for (int e = 0; e < a.num_experts() && !any_diff; ++e) {
    for (int g = 1; g < a.num_gpus(); ++g) {
      if (a.at(e, g) != a.at(e, 0)) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

// --- RoutingTrace ---------------------------------------------------------

TEST(RoutingTraceTest, AppendValidatesShapes) {
  RoutingTrace trace;
  std::vector<Assignment> step1;
  step1.emplace_back(4, 2);
  EXPECT_TRUE(trace.Append(std::move(step1)).ok());

  std::vector<Assignment> bad_layers;
  bad_layers.emplace_back(4, 2);
  bad_layers.emplace_back(4, 2);
  EXPECT_FALSE(trace.Append(std::move(bad_layers)).ok());

  std::vector<Assignment> bad_shape;
  bad_shape.emplace_back(8, 2);
  EXPECT_FALSE(trace.Append(std::move(bad_shape)).ok());
  EXPECT_FALSE(trace.Append({}).ok());
}

TEST(RoutingTraceTest, CdfAndSeries) {
  RoutingTrace trace;
  std::vector<Assignment> step;
  Assignment a(3, 1);
  a.set(0, 0, 60);
  a.set(1, 0, 30);
  a.set(2, 0, 10);
  step.push_back(a);
  ASSERT_TRUE(trace.Append(std::move(step)).ok());

  const auto cdf = trace.ExpertLoadCdf(0, 0);
  EXPECT_NEAR(cdf[0], 0.6, 1e-12);
  EXPECT_NEAR(cdf[1], 0.9, 1e-12);

  const auto series = trace.ExpertShareSeries(0);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_NEAR(series[0][0], 0.6, 1e-12);
}

TEST(RoutingTraceTest, SaveLoadRoundtrip) {
  auto gen = *TraceGenerator::Create(SmallOptions());
  RoutingTrace trace;
  for (int s = 0; s < 3; ++s) {
    ASSERT_TRUE(trace.Append(gen.Step()).ok());
  }
  const std::string path = TempPath("trace.bin");
  ASSERT_TRUE(trace.Save(path).ok());
  const RoutingTrace loaded = *RoutingTrace::Load(path);
  ASSERT_EQ(loaded.num_steps(), trace.num_steps());
  ASSERT_EQ(loaded.num_layers(), trace.num_layers());
  for (int s = 0; s < trace.num_steps(); ++s) {
    for (int l = 0; l < trace.num_layers(); ++l) {
      const Assignment& x = trace.at(s, l);
      const Assignment& y = loaded.at(s, l);
      for (int e = 0; e < x.num_experts(); ++e) {
        for (int g = 0; g < x.num_gpus(); ++g) {
          ASSERT_EQ(x.at(e, g), y.at(e, g));
        }
      }
    }
  }
}

TEST(RoutingTraceTest, LoadRejectsGarbage) {
  const std::string path = TempPath("garbage.bin");
  FILE* f = fopen(path.c_str(), "wb");
  fputs("not a trace", f);
  fclose(f);
  EXPECT_FALSE(RoutingTrace::Load(path).ok());
  EXPECT_FALSE(RoutingTrace::Load("/nonexistent/path").ok());
}

}  // namespace
}  // namespace flexmoe
