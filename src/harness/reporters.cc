#include "harness/reporters.h"

#include <algorithm>
#include <cmath>

#include "util/status.h"
#include "util/string_util.h"

namespace flexmoe {

std::string FormatSpeedup(double factor) {
  return StrFormat("%.2fx", factor);
}

std::string ReportLine(const ExperimentReport& r) {
  if (r.serving) {
    return StrFormat(
        "%-10s %-11s %2d GPUs | %lld batches | attain %5.1f%% | "
        "goodput %8.0f tok/s | p50 %s | p99 %s | shed %lld",
        r.system.c_str(), r.model.c_str(), r.num_gpus,
        static_cast<long long>(r.serve.batches),
        100.0 * r.serve.slo_attainment, r.serve.goodput_tokens_per_sec,
        HumanTime(r.serve.p50_latency_seconds).c_str(),
        HumanTime(r.serve.p99_latency_seconds).c_str(),
        static_cast<long long>(r.serve.requests_shed));
  }
  return StrFormat(
      "%-10s %-11s %2d GPUs | step %-9s | thpt %8.0f tok/s | "
      "tok_eff %.3f | exp_eff %.3f | util %.3f | balance %.2f | "
      "%s->%.3f in %.0f steps (%.1f h)",
      r.system.c_str(), r.model.c_str(), r.num_gpus,
      HumanTime(r.mean_step_seconds).c_str(), r.throughput_tokens_per_sec,
      r.mean_token_efficiency, r.mean_expert_efficiency,
      r.mean_gpu_utilization, r.mean_balance_ratio,
      r.target_metric_name.c_str(), r.target_metric, r.steps_to_target,
      r.hours_to_target);
}

std::string AsciiSeries(const std::vector<double>& values, int width,
                        int height) {
  if (values.empty() || width <= 0 || height <= 0) return "";
  double lo = values[0], hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi <= lo) hi = lo + 1.0;
  std::vector<std::string> rows(static_cast<size_t>(height),
                                std::string(static_cast<size_t>(width), ' '));
  for (int x = 0; x < width; ++x) {
    const size_t idx = static_cast<size_t>(
        static_cast<double>(x) / width * static_cast<double>(values.size()));
    const double v = values[std::min(idx, values.size() - 1)];
    const int y = static_cast<int>(std::lround(
        (v - lo) / (hi - lo) * static_cast<double>(height - 1)));
    rows[static_cast<size_t>(height - 1 - y)][static_cast<size_t>(x)] = '*';
  }
  std::string out;
  for (int r = 0; r < height; ++r) {
    const double level = hi - (hi - lo) * r / std::max(1, height - 1);
    out += StrFormat("%8.4f |", level) + rows[static_cast<size_t>(r)] + "\n";
  }
  return out;
}

std::string AsciiCdf(const std::vector<double>& cdf, int width) {
  std::string out;
  const size_t n = cdf.size();
  for (size_t i = 0; i < n; ++i) {
    const int bars = static_cast<int>(std::lround(cdf[i] * width));
    out += StrFormat("top-%2zu %5.1f%% |", i + 1, cdf[i] * 100.0);
    out.append(static_cast<size_t>(bars), '#');
    out += "\n";
    if (i >= 15 && i + 2 < n) {
      out += "   ...\n";
      break;
    }
  }
  if (!cdf.empty()) {
    out += StrFormat("top-%2zu %5.1f%% (all)\n", n, cdf.back() * 100.0);
  }
  return out;
}

}  // namespace flexmoe
