// Pre-training profiling pass (paper Section 3.4: "By leveraging a
// profiling-based approach, we first profile the function's running time
// under different input sizes and then estimate the corresponding
// environmental variables").
//
// The Profiler runs calibration workloads on the discrete-event engine —
// the reproduction's stand-in for the physical cluster — measures their
// wall-clock, fits linear cost models, and installs the fits into a
// HardwareProfile that the Policy Maker's CostModel then consumes.

#ifndef FLEXMOE_COLLECTIVE_PROFILER_H_
#define FLEXMOE_COLLECTIVE_PROFILER_H_

#include <vector>

#include "collective/engine_ops.h"
#include "topology/profile.h"

namespace flexmoe {

/// \brief Least-squares fit of y = alpha + beta * x.
LinearCost FitLinear(const std::vector<double>& xs,
                     const std::vector<double>& ys);

/// \brief Calibration settings.
struct ProfilerOptions {
  /// Token counts probed for the compute (TPS) fit.
  std::vector<double> compute_tokens = {256, 1024, 4096, 16384};
  /// Largest replica-group size to pre-profile for AllReduce (the paper
  /// enumerates device groups before training).
  int max_group_size = 16;

  Status Validate() const;
};

/// \brief Fits a HardwareProfile against the event engine.
class Profiler {
 public:
  Profiler(const Topology* topo, const GpuSpec& spec,
           const ProfilerOptions& options);

  /// Runs all calibrations and returns the fitted profile.
  /// `flops_per_token` characterizes the expert FFN being trained.
  Result<HardwareProfile> Calibrate(double flops_per_token) const;

  /// Individual passes, exposed for tests.
  void CalibrateCompute(double flops_per_token, HardwareProfile* p) const;
  void CalibrateLinks(HardwareProfile* p) const;
  void CalibrateAllReduce(HardwareProfile* p) const;

 private:
  /// Representative group of `k` GPUs spanning the fewest nodes possible
  /// (k <= gpus/node) or round-robin across nodes otherwise.
  std::vector<GpuId> RepresentativeGroup(int k, bool force_multi_node) const;

  const Topology* topo_;
  GpuSpec spec_;
  ProfilerOptions options_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_COLLECTIVE_PROFILER_H_
