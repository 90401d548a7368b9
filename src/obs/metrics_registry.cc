#include "obs/metrics_registry.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace flexmoe {
namespace obs {

namespace {

/// Bucket exponent for v > 0: the k with 2^(k-1) < v <= 2^k, via frexp
/// (exact binary decomposition — no transcendental rounding hazards).
int BucketExponent(double v) {
  int exp = 0;
  const double mantissa = std::frexp(v, &exp);  // v = mantissa * 2^exp
  // mantissa in [0.5, 1): v in (2^(exp-1), 2^exp) => bucket exp, except an
  // exact power of two (mantissa == 0.5, v == 2^(exp-1)) closes the bucket
  // below it.
  if (mantissa == 0.5) --exp;
  return std::clamp(exp, -40, 40);
}

}  // namespace

void MetricsRegistry::Add(const std::string& name, int64_t delta) {
  counters_[name] += delta;
}

void MetricsRegistry::Set(const std::string& name, double value) {
  gauges_[name] = value;
}

void MetricsRegistry::Observe(const std::string& name, double value) {
  HistogramSnapshot& h = histograms_[name];
  if (h.count == 0) {
    h.min = value;
    h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  h.sum += value;
  if (value <= 0.0 || !std::isfinite(value)) {
    ++h.underflow;
  } else {
    ++h.buckets[BucketExponent(value)];
  }
}

int64_t MetricsRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const HistogramSnapshot* MetricsRegistry::histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::SnapshotJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) out.push_back(',');
    first = false;
    out.append(StrFormat("\n\"%s\":%lld", name.c_str(),
                         static_cast<long long>(value)));
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& [name, value] : gauges_) {
    if (!first) out.push_back(',');
    first = false;
    out.append(StrFormat("\n\"%s\":%.9g", name.c_str(), value));
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out.push_back(',');
    first = false;
    out.append(StrFormat(
        "\n\"%s\":{\"count\":%lld,\"sum\":%.9g,\"min\":%.9g,\"max\":%.9g,"
        "\"underflow\":%lld,\"buckets\":{",
        name.c_str(), static_cast<long long>(h.count), h.sum, h.min, h.max,
        static_cast<long long>(h.underflow)));
    bool first_bucket = true;
    for (const auto& [exponent, count] : h.buckets) {
      if (!first_bucket) out.push_back(',');
      first_bucket = false;
      out.append(StrFormat("\"%d\":%lld", exponent,
                           static_cast<long long>(count)));
    }
    out.append("}}");
  }
  out.append("}}\n");
  return out;
}

}  // namespace obs
}  // namespace flexmoe
