// Figure 3: expert-load skewness and fluctuation on a GPT-MoE trace with
// 64 experts per MoE layer.
//  (a) CDF of expert loads at a single step: the top-10 experts receive
//      ~75% of all tokens.
//  (b) evolution of per-expert load shares across training: smooth and
//      continuous drift, experts swapping ranks over hundreds of steps.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "gate/routing_trace.h"
#include "gate/trace_generator.h"
#include "harness/reporters.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table.h"

namespace flexmoe {
namespace {

int Run(bool quick) {
  bench::PrintHeader("Figure 3 — expert-load skewness and fluctuation",
                     "GPT-MoE trace, 64 experts per MoE layer");

  TraceGeneratorOptions opts;
  opts.num_experts = 64;
  opts.num_moe_layers = 4;
  opts.num_gpus = 8;
  opts.tokens_per_gpu = 8192;
  opts.balance_coef = 0.001;  // the paper's training configuration
  opts.seed = 23;
  TraceGenerator gen = *TraceGenerator::Create(opts);

  const int steps = quick ? 300 : 2000;
  RoutingTrace trace;
  for (int s = 0; s < steps; ++s) {
    FLEXMOE_CHECK_OK(trace.Append(gen.Step()));
  }

  // --- (a) load CDF at an early step, averaged over layers ---------------
  std::printf("(a) expert-load CDF at step 10 (layer 0):\n");
  const auto cdf = trace.ExpertLoadCdf(10, 0);
  std::printf("%s\n", AsciiCdf(cdf, 50).c_str());

  Table shares({"k (heaviest experts)", "share (ours)", "share (paper)"});
  RunningStat top10;
  for (int s = 0; s < trace.num_steps(); ++s) {
    top10.Add(trace.ExpertLoadCdf(s, 0)[9]);
  }
  shares.AddRow({"10 of 64 (mean over steps)",
                 StrFormat("%.1f%%", top10.mean() * 100.0), "~75%"});
  shares.AddRow({"10 of 64 (step 10)",
                 StrFormat("%.1f%%", cdf[9] * 100.0), "~75%"});
  std::printf("%s\n", shares.ToAscii().c_str());

  // --- (b) load evolution -------------------------------------------------
  std::printf("(b) per-expert load share over training (layer 0):\n");
  const auto series = trace.ExpertShareSeries(0);
  // Plot the three experts with the largest swing.
  std::vector<std::pair<double, int>> swings;
  for (int e = 0; e < opts.num_experts; ++e) {
    double lo = 1.0, hi = 0.0;
    for (const auto& step : series) {
      lo = std::min(lo, step[static_cast<size_t>(e)]);
      hi = std::max(hi, step[static_cast<size_t>(e)]);
    }
    swings.push_back({hi - lo, e});
  }
  std::sort(swings.begin(), swings.end(), std::greater<>());
  for (int i = 0; i < 3; ++i) {
    const int e = swings[static_cast<size_t>(i)].second;
    std::vector<double> line;
    line.reserve(series.size());
    for (const auto& step : series) line.push_back(step[static_cast<size_t>(e)]);
    std::printf("expert %d share:\n%s\n", e,
                AsciiSeries(line, 64, 8).c_str());
  }

  // Smoothness statistics: adjacent-step vs 300-step L1 distance between
  // share distributions (Observation 2: "smooth and continuous change").
  RunningStat adjacent, distant;
  auto l1 = [&](int i, int j) {
    double d = 0.0;
    for (size_t e = 0; e < series[static_cast<size_t>(i)].size(); ++e) {
      d += std::abs(series[static_cast<size_t>(i)][e] -
                    series[static_cast<size_t>(j)][e]);
    }
    return d;
  };
  const int horizon = std::min(300, trace.num_steps() - 1);
  for (int s = 0; s + 1 < trace.num_steps(); ++s) adjacent.Add(l1(s, s + 1));
  for (int s = 0; s + horizon < trace.num_steps(); ++s) {
    distant.Add(l1(s, s + horizon));
  }
  Table smooth({"distance", "mean L1 between share vectors"});
  smooth.AddRow({"adjacent steps", StrFormat("%.4f", adjacent.mean())});
  smooth.AddRow({StrFormat("%d steps apart", horizon),
                 StrFormat("%.4f", distant.mean())});
  std::printf("%s\n", smooth.ToAscii().c_str());
  std::printf(
      "shape check: long-horizon drift >> step-to-step jitter — loads\n"
      "change smoothly (enabling reactive placement) yet fluctuate over\n"
      "training (requiring dynamic management).\n");
  return 0;
}

}  // namespace
}  // namespace flexmoe

int main(int argc, char** argv) {
  return flexmoe::Run(flexmoe::bench::ParseCommonFlags(argc, argv).quick);
}
