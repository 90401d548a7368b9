// Figure 6(c): cost-model validation — estimated vs real execution cost
// for computation, All-to-All, and AllReduce across input sizes. The paper
// reports an average prediction error below 3%.
//
// "Real" is the discrete-event engine (the reproduction's hardware);
// "estimated" is the profiled analytic model the Policy Maker uses.

#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "collective/profiler.h"
#include "moe/model_config.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table.h"

namespace flexmoe {
namespace {

int Run(bool quick) {
  (void)quick;  // this bench is cheap; no quick mode needed
  bench::PrintHeader("Figure 6(c) — cost model estimation accuracy",
                     "estimated/real ratio across input sizes, 3 primitives");

  TopologyOptions topt = AzureA100Options(64);
  const Topology topo = *Topology::Create(topt);
  const GpuSpec spec;
  Profiler profiler(&topo, spec, ProfilerOptions{});
  const double flops_per_token = GptMoES().expert_fwdbwd_flops_per_token();
  const HardwareProfile profile = *profiler.Calibrate(flops_per_token);

  Table table({"primitive", "input size", "real cost (ms)",
               "estimated (ms)", "est/real"});
  RunningStat err;

  // Computation (Eq. 7) across token counts.
  for (double tokens : {512.0, 2048.0, 8192.0, 32768.0, 131072.0}) {
    ClusterState cluster(&topo);
    const double real =
        ExecCompute(&cluster, profile, 0, tokens, flops_per_token, 0.0);
    const double est = profile.ComputeSeconds(tokens, flops_per_token);
    err.Add(std::abs(est / real - 1.0));
    table.AddRow({"Computation", StrFormat("%.0f tokens", tokens),
                  StrFormat("%.3f", real * 1e3), StrFormat("%.3f", est * 1e3),
                  StrFormat("%.3f", est / real)});
  }

  // All-to-All across per-pair payload sizes (uniform exchange).
  for (double mb : {0.25, 1.0, 4.0, 16.0}) {
    ByteMatrix m = MakeByteMatrix(topo.num_gpus());
    for (int s = 0; s < topo.num_gpus(); ++s) {
      for (int d = 0; d < topo.num_gpus(); ++d) {
        if (s != d) m[s][d] = mb * 1e6;
      }
    }
    ClusterState cluster(&topo);
    const CollectiveResult r = ExecAllToAll(&cluster, profile, m, 0.0);
    const double est = A2ASecondsAnalytic(m, profile);
    err.Add(std::abs(est / r.finish - 1.0));
    table.AddRow({"AllToAll", StrFormat("%.2f MB/pair", mb),
                  StrFormat("%.3f", r.finish * 1e3),
                  StrFormat("%.3f", est * 1e3),
                  StrFormat("%.3f", est / r.finish)});
  }

  // AllReduce across message sizes and group shapes.
  const std::vector<std::vector<GpuId>> groups = {
      {0, 1, 2, 3}, {0, 1, 8, 9}, {0, 8, 16, 24, 32, 40, 48, 56}};
  for (const auto& group : groups) {
    for (double mb : {1.0, 16.0, 64.0}) {
      ClusterState cluster(&topo);
      const CollectiveResult r =
          ExecRingAllReduce(&cluster, profile, mb * 1e6, group, 0.0);
      const double est = profile.AllReduceSeconds(mb * 1e6, group);
      err.Add(std::abs(est / r.finish - 1.0));
      table.AddRow(
          {"AllReduce",
           StrFormat("%.0f MB, %zu GPUs/%d nodes", mb, group.size(),
                     topo.NodesSpanned(group)),
           StrFormat("%.3f", r.finish * 1e3), StrFormat("%.3f", est * 1e3),
           StrFormat("%.3f", est / r.finish)});
    }
  }

  std::printf("%s\n", table.ToAscii().c_str());
  std::printf("mean |est/real - 1| = %.2f%%   (paper: < 3%%)\n",
              err.mean() * 100.0);
  return 0;
}

}  // namespace
}  // namespace flexmoe

int main(int argc, char** argv) {
  return flexmoe::Run(flexmoe::bench::ParseCommonFlags(argc, argv).quick);
}
