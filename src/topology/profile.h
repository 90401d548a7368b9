// Hardware profile: the quantities the paper obtains by profiling its
// physical cluster (TPS — tokens/second per expert, Bw — pairwise GPU
// bandwidth, BPS — AllReduce bytes/second per device group).
//
// A HardwareProfile starts from analytic values derived from the Topology
// and a GpuSpec, and the collective::Profiler can overwrite individual
// entries with values fitted against the discrete-event engine, mirroring
// the paper's "profiling-based approach" (Section 3.4).

#ifndef FLEXMOE_TOPOLOGY_PROFILE_H_
#define FLEXMOE_TOPOLOGY_PROFILE_H_

#include <map>
#include <vector>

#include "topology/topology.h"
#include "util/matrix.h"
#include "util/status.h"

namespace flexmoe {

/// \brief Compute characteristics of a single accelerator.
struct GpuSpec {
  /// Peak dense throughput in FLOP/s (A100 BF16 tensor-core peak).
  double peak_flops = 312e12;
  /// Achieved fraction of peak for FFN-style GEMMs.
  double efficiency = 0.45;
  /// Fixed per-kernel launch/dispatch overhead in seconds.
  double kernel_overhead_sec = 8e-6;
  /// Device memory (A100 80 GB); used for placement feasibility checks.
  double memory_bytes = 80e9;

  Status Validate() const;
};

/// \brief Shape key for per-group AllReduce calibration entries.
///
/// Groups with the same size and node span behave identically in a
/// homogeneous cluster, so calibration is keyed on this signature rather
/// than the concrete member list.
struct GroupSignature {
  int num_gpus = 0;
  int num_nodes = 0;

  bool operator<(const GroupSignature& o) const {
    if (num_gpus != o.num_gpus) return num_gpus < o.num_gpus;
    return num_nodes < o.num_nodes;
  }
  bool operator==(const GroupSignature& o) const {
    return num_gpus == o.num_gpus && num_nodes == o.num_nodes;
  }
};

/// \brief Linear time model `time = alpha + bytes * beta` for one path.
struct LinearCost {
  double alpha_sec = 0.0;       ///< fixed cost
  double beta_sec_per_byte = 0; ///< marginal cost
  double Seconds(double bytes) const { return alpha_sec + bytes * beta_sec_per_byte; }
};

/// \brief Profiled cluster performance model consumed by core::CostModel.
class HardwareProfile {
 public:
  /// Builds analytic defaults for `topo` and `spec`. The topology pointer
  /// must outlive the profile.
  HardwareProfile(const Topology* topo, const GpuSpec& spec);

  const Topology& topology() const { return *topo_; }
  const GpuSpec& gpu_spec() const { return spec_; }

  // --- Compute (paper's TPS) -------------------------------------------

  /// Seconds for one expert to process `tokens` tokens of a fwd+bwd pass,
  /// given the expert's per-token FLOP count.
  double ComputeSeconds(double tokens, double flops_per_token) const;

  /// Tokens/second throughput for an expert (the paper's TPS), marginal
  /// rate excluding kernel overhead.
  double TokensPerSecond(double flops_per_token) const;

  // --- Point-to-point (paper's Bw) --------------------------------------

  /// Seconds to move `bytes` from `src` to `dst` over the direct path.
  double P2pSeconds(double bytes, GpuId src, GpuId dst) const;

  /// Effective path bandwidth in bytes/s (after calibration scaling).
  /// O(1) flat-cache read — this is the innermost call of every A2A
  /// estimate and collective execution.
  double BandwidthBytesPerSec(GpuId src, GpuId dst) const {
    return bandwidth_cache_(src, dst);
  }

  double LatencySeconds(GpuId src, GpuId dst) const {
    return latency_cache_(src, dst);
  }

  /// Compile-only stub: perfbench/runner.cc:394 still calls this setter,
  /// and it is its only reason to exist. The per-node A2A estimation mode
  /// it once enabled is gone, so only `false` is accepted.
  void set_hierarchical_a2a(bool enabled) { FLEXMOE_CHECK(!enabled); }

  // --- AllReduce (paper's BPS) ------------------------------------------

  /// Seconds to AllReduce `bytes` across `group` (ring algorithm unless a
  /// calibrated entry exists for the group's signature).
  double AllReduceSeconds(double bytes, const std::vector<GpuId>& group) const;

  /// Per-kernel launch overhead charged by ComputeSeconds — the calibrated
  /// value when SetComputeCalibration ran, GpuSpec::kernel_overhead_sec
  /// otherwise. The chunked cost model uses it to price the extra (K - 1)
  /// launches per leg that pipelining at depth K costs (DESIGN.md §12).
  double kernel_overhead_sec() const { return compute_overhead_sec_; }

  // --- Calibration hooks (used by collective::Profiler) -----------------

  /// Overrides the compute model with a fitted linear cost per token.
  void SetComputeCalibration(double overhead_sec, double sec_per_flop);

  /// Scales analytic link bandwidth for one link class (e.g. 0.92 if the
  /// engine delivers 92% of nominal due to contention).
  void SetLinkEfficiency(LinkClass link, double efficiency);

  /// Installs a fitted AllReduce cost for one group signature.
  void SetAllReduceCalibration(const GroupSignature& sig, LinearCost cost);

  /// Returns the calibrated entry if present.
  const LinearCost* FindAllReduceCalibration(const GroupSignature& sig) const;

  GroupSignature SignatureOf(const std::vector<GpuId>& group) const;

 private:
  double RingAllReduceSeconds(double bytes,
                              const std::vector<GpuId>& group) const;

  /// Rebuilds the flat pairwise caches from the topology and the current
  /// link efficiencies (called at construction and by SetLinkEfficiency).
  void RebuildLinkCaches();

  const Topology* topo_;
  GpuSpec spec_;
  double sec_per_flop_;
  double compute_overhead_sec_;
  std::map<LinkClass, double> link_efficiency_;
  std::map<GroupSignature, LinearCost> allreduce_calibration_;
  /// Flat G x G caches of effective bandwidth and latency per pair.
  Matrix<double> bandwidth_cache_;
  Matrix<double> latency_cache_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_TOPOLOGY_PROFILE_H_
