#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace flexmoe {

void RunningStat::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

std::vector<double> SortedCdf(const std::vector<double>& loads) {
  std::vector<double> sorted = loads;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  double total = 0.0;
  for (double v : sorted) total += v;
  std::vector<double> cdf(sorted.size(), 0.0);
  double acc = 0.0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    acc += sorted[i];
    cdf[i] = total > 0.0 ? acc / total : 0.0;
  }
  return cdf;
}

double TopKShare(const std::vector<double>& loads, size_t k) {
  if (loads.empty() || k == 0) return 0.0;
  const auto cdf = SortedCdf(loads);
  return cdf[std::min(k, cdf.size()) - 1];
}

}  // namespace flexmoe
