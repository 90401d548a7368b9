// Tests for streaming statistics and load-distribution helpers.

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"
#include "util/stats.h"

namespace flexmoe {
namespace {

TEST(RunningStatTest, BasicMoments) {
  RunningStat st;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.Add(v);
  EXPECT_EQ(st.count(), 8);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_DOUBLE_EQ(st.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(st.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
  EXPECT_DOUBLE_EQ(st.sum(), 40.0);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat st;
  EXPECT_EQ(st.count(), 0);
  EXPECT_EQ(st.mean(), 0.0);
  EXPECT_EQ(st.variance(), 0.0);
}

TEST(SortedCdfTest, KnownDistribution) {
  // Loads 40, 30, 20, 10 => cdf 0.4, 0.7, 0.9, 1.0 (descending order).
  const auto cdf = SortedCdf({10.0, 40.0, 20.0, 30.0});
  ASSERT_EQ(cdf.size(), 4u);
  EXPECT_NEAR(cdf[0], 0.4, 1e-12);
  EXPECT_NEAR(cdf[1], 0.7, 1e-12);
  EXPECT_NEAR(cdf[2], 0.9, 1e-12);
  EXPECT_NEAR(cdf[3], 1.0, 1e-12);
}

TEST(SortedCdfTest, MonotoneNonDecreasing) {
  Rng rng(2);
  std::vector<double> loads;
  for (int i = 0; i < 64; ++i) loads.push_back(rng.Uniform(0.0, 100.0));
  const auto cdf = SortedCdf(loads);
  for (size_t i = 1; i < cdf.size(); ++i) EXPECT_GE(cdf[i], cdf[i - 1]);
  EXPECT_NEAR(cdf.back(), 1.0, 1e-9);
}

TEST(TopKShareTest, Basics) {
  const std::vector<double> loads = {10, 40, 20, 30};
  EXPECT_NEAR(TopKShare(loads, 1), 0.4, 1e-12);
  EXPECT_NEAR(TopKShare(loads, 2), 0.7, 1e-12);
  EXPECT_NEAR(TopKShare(loads, 4), 1.0, 1e-12);
  EXPECT_NEAR(TopKShare(loads, 99), 1.0, 1e-12);  // clamps
  EXPECT_EQ(TopKShare(loads, 0), 0.0);
  EXPECT_EQ(TopKShare({}, 3), 0.0);
}

}  // namespace
}  // namespace flexmoe
