// Cluster topology model: nodes of GPUs connected by NVLink intra-node and
// InfiniBand inter-node, mirroring the paper's testbed (8xA100 Azure VMs,
// NVLink 3.0 within a node, 8x200 Gbps IB across nodes).
//
// All scheduling logic consumes only the quantities exposed here (bandwidth,
// latency, node membership), which is exactly the information the paper's
// system obtains by profiling its physical cluster.

#ifndef FLEXMOE_TOPOLOGY_TOPOLOGY_H_
#define FLEXMOE_TOPOLOGY_TOPOLOGY_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace flexmoe {

/// GPU index within the cluster, in [0, num_gpus).
using GpuId = int;
/// Node (server) index within the cluster.
using NodeId = int;

/// Classes of links between a pair of GPUs.
enum class LinkClass {
  kLoopback,   ///< same GPU (device-local copy)
  kIntraNode,  ///< NVLink / NVSwitch within one server
  kInterNode,  ///< InfiniBand / NIC across servers
};

/// \brief Parameters describing a homogeneous GPU cluster.
struct TopologyOptions {
  int num_nodes = 8;
  int gpus_per_node = 8;

  /// NVLink 3.0-class effective per-GPU bandwidth (bytes/s).
  double intra_node_bytes_per_sec = 300e9;
  /// 200 Gbps InfiniBand per GPU (the paper: 8 NICs x 200 Gbps per node).
  double inter_node_bytes_per_sec = 25e9;
  /// Device-local copies (shared-memory parameter sharing) are effectively
  /// free relative to network transfers but still finite.
  double loopback_bytes_per_sec = 1.3e12;

  double intra_node_latency_sec = 3e-6;
  double inter_node_latency_sec = 10e-6;
  double loopback_latency_sec = 1e-6;

  /// Returns OK iff all fields are consistent (positive sizes/bandwidths).
  Status Validate() const;
};

/// \brief An immutable cluster description with bandwidth/latency queries.
class Topology {
 public:
  /// Builds a topology after validating `options`.
  static Result<Topology> Create(const TopologyOptions& options);

  int num_gpus() const { return options_.num_nodes * options_.gpus_per_node; }
  int num_nodes() const { return options_.num_nodes; }
  int gpus_per_node() const { return options_.gpus_per_node; }
  const TopologyOptions& options() const { return options_; }

  NodeId NodeOf(GpuId g) const;
  bool SameNode(GpuId a, GpuId b) const;
  LinkClass LinkBetween(GpuId a, GpuId b) const;

  /// Effective bandwidth of the (a, b) path in bytes/s.
  double BandwidthBytesPerSec(GpuId a, GpuId b) const;

  /// One-way message latency of the (a, b) path in seconds.
  double LatencySeconds(GpuId a, GpuId b) const;

  /// All GPUs residing on `node`.
  std::vector<GpuId> GpusOnNode(NodeId node) const;

  /// Number of distinct nodes spanned by `gpus`.
  int NodesSpanned(const std::vector<GpuId>& gpus) const;

  /// Minimum pairwise bandwidth within a group (the ring bottleneck).
  double MinGroupBandwidth(const std::vector<GpuId>& gpus) const;

 private:
  explicit Topology(TopologyOptions options) : options_(options) {}

  TopologyOptions options_;
};

/// \brief Preset mirroring the paper's evaluation cluster scaled to
/// `num_gpus` (must be a multiple of 8; 8 GPUs per node).
TopologyOptions AzureA100Options(int num_gpus);

}  // namespace flexmoe

#endif  // FLEXMOE_TOPOLOGY_TOPOLOGY_H_
