// Record, persist, and analyze a routing trace: reproduces the paper's
// Section 2.4 workload study (skewness and routing fluctuation) on a
// synthetic GPT-MoE gate, and shows the trace save/load API used to replay
// identical workloads across system comparisons.
//
//   ./build/trace_analysis

#include <unistd.h>

#include <cstdio>

#include "gate/routing_trace.h"
#include "gate/trace_generator.h"
#include "harness/reporters.h"
#include "util/stats.h"
#include "util/string_util.h"

using namespace flexmoe;

int main() {
  TraceGeneratorOptions options;
  options.num_experts = 64;
  options.num_moe_layers = 2;
  options.num_gpus = 16;
  options.tokens_per_gpu = 8192;
  options.balance_coef = 0.001;
  options.seed = 2026;
  TraceGenerator gen = *TraceGenerator::Create(options);
  std::printf("calibrated logit sigma: %.3f (top-10/64 share target 75%%)\n\n",
              gen.sigma0());

  // Record 600 training steps.
  RoutingTrace trace;
  for (int s = 0; s < 600; ++s) {
    FLEXMOE_CHECK_OK(trace.Append(gen.Step()));
  }

  // Skewness (paper Fig. 3a): share of tokens taken by the heaviest k.
  std::printf("expert-load CDF at step 50 (layer 0):\n%s\n",
              AsciiCdf(trace.ExpertLoadCdf(50, 0), 48).c_str());

  RunningStat top1, top10;
  for (int s = 0; s < trace.num_steps(); ++s) {
    const auto cdf = trace.ExpertLoadCdf(s, 0);
    top1.Add(cdf[0]);
    top10.Add(cdf[9]);
  }
  std::printf("mean top-1 share: %.1f%%   mean top-10 share: %.1f%%\n\n",
              top1.mean() * 100, top10.mean() * 100);

  // Fluctuation (paper Fig. 3b): the hottest expert's share over time.
  const auto series = trace.ExpertShareSeries(0);
  int hottest = 0;
  double best = 0.0;
  for (int e = 0; e < options.num_experts; ++e) {
    if (series[0][static_cast<size_t>(e)] > best) {
      best = series[0][static_cast<size_t>(e)];
      hottest = e;
    }
  }
  std::vector<double> line;
  line.reserve(series.size());
  for (const auto& step : series) {
    line.push_back(step[static_cast<size_t>(hottest)]);
  }
  std::printf("expert %d share over 600 steps (initially the hottest):\n%s\n",
              hottest, AsciiSeries(line, 64, 9).c_str());

  // Persist and replay through a per-process file (two copies run at once
  // never share it), removed after the reload.
  const std::string path =
      StrFormat("/tmp/flexmoe_trace_%d.bin", static_cast<int>(getpid()));
  FLEXMOE_CHECK_OK(trace.Save(path));
  const RoutingTrace replay = *RoutingTrace::Load(path);
  std::remove(path.c_str());
  std::printf("saved %d steps x %d layers to a file and reloaded %d steps\n",
              trace.num_steps(), trace.num_layers(), replay.num_steps());
  FLEXMOE_CHECK(replay.at(123, 1).Total() == trace.at(123, 1).Total());
  std::printf("replayed step 123 matches the recording. done.\n");
  return 0;
}
