// Metrics registry: named counters / gauges / histograms with deterministic
// snapshot ordering. Replaces ad-hoc one-off metric fields as the extension
// point for new instrumentation (queue depths, shed reasons, candidate-
// search iterations, gate draws); snapshots export as sorted JSON.
//
// Determinism contract (DESIGN.md Section 9): iteration order is the
// lexicographic name order of a std::map, values are printed with fixed
// printf formats, and nothing wall-clock-derived is ever recorded — so two
// same-seed runs snapshot byte-identically.

#ifndef FLEXMOE_OBS_METRICS_REGISTRY_H_
#define FLEXMOE_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>

#include "util/status.h"

namespace flexmoe {
namespace obs {

/// \brief Aggregated distribution: count/sum/min/max plus power-of-two
/// buckets (bucket k counts observations v with 2^(k-1) < v <= 2^k;
/// non-positive observations land in the dedicated underflow bucket).
struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  int64_t underflow = 0;
  /// Non-empty buckets only, keyed by exponent k (clamped to [-40, 40]).
  std::map<int, int64_t> buckets;
};

/// \brief Named counters, gauges, and histograms.
class MetricsRegistry {
 public:
  /// Adds `delta` to counter `name` (created at 0 on first use).
  void Add(const std::string& name, int64_t delta = 1);
  /// Sets gauge `name` to `value` (last-write-wins).
  void Set(const std::string& name, double value);
  /// Records one observation into histogram `name`.
  void Observe(const std::string& name, double value);

  int64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  const HistogramSnapshot* histogram(const std::string& name) const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// \brief {"counters":{...},"gauges":{...},"histograms":{...}} in
  /// sorted name order, histogram buckets included.
  std::string SnapshotJson() const;

 private:
  std::map<std::string, int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, HistogramSnapshot> histograms_;
};

}  // namespace obs
}  // namespace flexmoe

#endif  // FLEXMOE_OBS_METRICS_REGISTRY_H_
