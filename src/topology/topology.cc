#include "topology/topology.h"

#include <algorithm>
#include <set>

namespace flexmoe {

Status TopologyOptions::Validate() const {
  if (num_nodes <= 0) {
    return Status::InvalidArgument("num_nodes must be positive");
  }
  if (gpus_per_node <= 0) {
    return Status::InvalidArgument("gpus_per_node must be positive");
  }
  if (intra_node_bytes_per_sec <= 0 || inter_node_bytes_per_sec <= 0 ||
      loopback_bytes_per_sec <= 0) {
    return Status::InvalidArgument("bandwidths must be positive");
  }
  if (intra_node_latency_sec < 0 || inter_node_latency_sec < 0 ||
      loopback_latency_sec < 0) {
    return Status::InvalidArgument("latencies must be non-negative");
  }
  return Status::OK();
}

Result<Topology> Topology::Create(const TopologyOptions& options) {
  FLEXMOE_RETURN_IF_ERROR(options.Validate());
  return Topology(options);
}

NodeId Topology::NodeOf(GpuId g) const {
  FLEXMOE_CHECK(g >= 0 && g < num_gpus());
  return g / options_.gpus_per_node;
}

bool Topology::SameNode(GpuId a, GpuId b) const {
  return NodeOf(a) == NodeOf(b);
}

LinkClass Topology::LinkBetween(GpuId a, GpuId b) const {
  if (a == b) return LinkClass::kLoopback;
  return SameNode(a, b) ? LinkClass::kIntraNode : LinkClass::kInterNode;
}

double Topology::BandwidthBytesPerSec(GpuId a, GpuId b) const {
  switch (LinkBetween(a, b)) {
    case LinkClass::kLoopback:
      return options_.loopback_bytes_per_sec;
    case LinkClass::kIntraNode:
      return options_.intra_node_bytes_per_sec;
    case LinkClass::kInterNode:
      return options_.inter_node_bytes_per_sec;
  }
  return 0.0;
}

double Topology::LatencySeconds(GpuId a, GpuId b) const {
  switch (LinkBetween(a, b)) {
    case LinkClass::kLoopback:
      return options_.loopback_latency_sec;
    case LinkClass::kIntraNode:
      return options_.intra_node_latency_sec;
    case LinkClass::kInterNode:
      return options_.inter_node_latency_sec;
  }
  return 0.0;
}

std::vector<GpuId> Topology::GpusOnNode(NodeId node) const {
  FLEXMOE_CHECK(node >= 0 && node < num_nodes());
  std::vector<GpuId> out;
  out.reserve(options_.gpus_per_node);
  for (int i = 0; i < options_.gpus_per_node; ++i) {
    out.push_back(node * options_.gpus_per_node + i);
  }
  return out;
}

int Topology::NodesSpanned(const std::vector<GpuId>& gpus) const {
  // Nodes own contiguous GPU blocks, so an ascending list (every host list
  // the planner and the cost model pass) visits non-decreasing node ids and
  // the distinct count is the number of node changes — no set needed.
  int spanned = 0;
  NodeId prev = -1;
  bool ascending = true;
  for (GpuId g : gpus) {
    const NodeId n = NodeOf(g);
    if (n < prev) {
      ascending = false;
      break;
    }
    if (n != prev) ++spanned;
    prev = n;
  }
  if (ascending) return spanned;
  std::set<NodeId> nodes;
  for (GpuId g : gpus) nodes.insert(NodeOf(g));
  return static_cast<int>(nodes.size());
}

double Topology::MinGroupBandwidth(const std::vector<GpuId>& gpus) const {
  if (gpus.size() < 2) return options_.loopback_bytes_per_sec;
  // The bottleneck link of any ring over the group: inter-node if the group
  // spans several nodes, otherwise intra-node.
  return NodesSpanned(gpus) > 1 ? options_.inter_node_bytes_per_sec
                                : options_.intra_node_bytes_per_sec;
}

TopologyOptions AzureA100Options(int num_gpus) {
  FLEXMOE_CHECK_MSG(num_gpus > 0 && num_gpus % 8 == 0,
                    "Azure preset requires a multiple of 8 GPUs");
  TopologyOptions opts;
  opts.num_nodes = num_gpus / 8;
  opts.gpus_per_node = 8;
  return opts;
}

}  // namespace flexmoe
