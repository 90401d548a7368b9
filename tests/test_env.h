// Shared test fixtures: an AzureA100-style topology plus a HardwareProfile
// (previously copy-pasted as a private `Env`/`Fixture` struct in five test
// files; every test builds its simulated cluster through one of these
// factories instead), and the per-process temp path every test that writes
// a file uses.

#ifndef FLEXMOE_TESTS_TEST_ENV_H_
#define FLEXMOE_TESTS_TEST_ENV_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "collective/profiler.h"
#include "moe/model_config.h"
#include "topology/topology.h"

namespace flexmoe {

struct TestEnv {
  std::unique_ptr<Topology> topo;
  HardwareProfile profile;

  /// Analytic (uncalibrated) profile on `num_gpus` A100-style devices —
  /// the default for tests that only need consistent relative timings.
  static TestEnv Make(int num_gpus = 8) {
    return From(AzureA100Options(num_gpus));
  }

  /// Custom node layout (e.g. 2 nodes x 4 GPUs), analytic profile.
  static TestEnv MakeGrid(int num_nodes, int gpus_per_node) {
    TopologyOptions topt;
    topt.num_nodes = num_nodes;
    topt.gpus_per_node = gpus_per_node;
    return From(topt);
  }

  /// Profiler-calibrated profile (slower; for tests sensitive to the
  /// calibrated timing constants the experiment harness uses).
  static TestEnv MakeCalibrated(int num_gpus = 8) {
    auto topo = std::make_unique<Topology>(
        *Topology::Create(AzureA100Options(num_gpus)));
    Profiler profiler(topo.get(), GpuSpec{}, ProfilerOptions{});
    HardwareProfile profile =
        *profiler.Calibrate(GptMoES().expert_fwdbwd_flops_per_token());
    return TestEnv{std::move(topo), std::move(profile)};
  }

  static TestEnv From(const TopologyOptions& topt) {
    auto topo = std::make_unique<Topology>(*Topology::Create(topt));
    HardwareProfile profile(topo.get(), GpuSpec{});
    return TestEnv{std::move(topo), std::move(profile)};
  }
};

/// A path for `name` under the test temp directory, prefixed with this
/// process's pid: two copies of one test binary running at once (CI runs
/// its shuffled seeds concurrently) never share a file. Whatever the test
/// leaves at the path is removed when the process exits, so per-pid names
/// do not pile up across runs.
inline std::string TempPath(const std::string& name) {
  struct Handed {
    std::vector<std::string> paths;
    ~Handed() {
      for (const std::string& path : paths) std::remove(path.c_str());
    }
  };
  static Handed handed;
  handed.paths.push_back(::testing::TempDir() + "flexmoe_" +
                         std::to_string(getpid()) + "_" + name);
  return handed.paths.back();
}

}  // namespace flexmoe

#endif  // FLEXMOE_TESTS_TEST_ENV_H_
