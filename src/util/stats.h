// Streaming statistics used throughout metric collection: running
// mean/variance and CDFs over load vectors.

#ifndef FLEXMOE_UTIL_STATS_H_
#define FLEXMOE_UTIL_STATS_H_

#include <cstdint>
#include <cstddef>
#include <limits>
#include <vector>

namespace flexmoe {

/// \brief Welford-style running mean/variance with min/max tracking.
class RunningStat {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// \brief Sorted-descending cumulative share curve of a load vector.
///
/// Reproduces the paper's Figure 3(a): SortedCdf(loads)[k-1] is the share of
/// total load captured by the k heaviest entries.
std::vector<double> SortedCdf(const std::vector<double>& loads);

/// \brief Fraction of mass captured by the top-k entries of `loads`.
double TopKShare(const std::vector<double>& loads, size_t k);

}  // namespace flexmoe

#endif  // FLEXMOE_UTIL_STATS_H_
