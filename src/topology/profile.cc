#include "topology/profile.h"

#include <algorithm>
#include <cmath>

namespace flexmoe {

Status GpuSpec::Validate() const {
  if (peak_flops <= 0) return Status::InvalidArgument("peak_flops <= 0");
  if (efficiency <= 0 || efficiency > 1.0) {
    return Status::InvalidArgument("efficiency must be in (0, 1]");
  }
  if (kernel_overhead_sec < 0) {
    return Status::InvalidArgument("kernel_overhead_sec < 0");
  }
  if (memory_bytes <= 0) return Status::InvalidArgument("memory_bytes <= 0");
  return Status::OK();
}

HardwareProfile::HardwareProfile(const Topology* topo, const GpuSpec& spec)
    : topo_(topo), spec_(spec) {
  FLEXMOE_CHECK(topo != nullptr);
  FLEXMOE_CHECK_OK(spec.Validate());
  sec_per_flop_ = 1.0 / (spec.peak_flops * spec.efficiency);
  compute_overhead_sec_ = spec.kernel_overhead_sec;
  link_efficiency_[LinkClass::kLoopback] = 1.0;
  link_efficiency_[LinkClass::kIntraNode] = 1.0;
  link_efficiency_[LinkClass::kInterNode] = 1.0;
  RebuildLinkCaches();
}

void HardwareProfile::RebuildLinkCaches() {
  const int n = topo_->num_gpus();
  bandwidth_cache_.assign(n, n, 0.0);
  latency_cache_.assign(n, n, 0.0);
  for (GpuId src = 0; src < n; ++src) {
    for (GpuId dst = 0; dst < n; ++dst) {
      const LinkClass link = topo_->LinkBetween(src, dst);
      bandwidth_cache_(src, dst) =
          topo_->BandwidthBytesPerSec(src, dst) * link_efficiency_.at(link);
      latency_cache_(src, dst) = topo_->LatencySeconds(src, dst);
    }
  }
}

double HardwareProfile::ComputeSeconds(double tokens,
                                       double flops_per_token) const {
  if (tokens <= 0) return 0.0;
  return compute_overhead_sec_ + tokens * flops_per_token * sec_per_flop_;
}

double HardwareProfile::TokensPerSecond(double flops_per_token) const {
  return 1.0 / (flops_per_token * sec_per_flop_);
}

double HardwareProfile::P2pSeconds(double bytes, GpuId src, GpuId dst) const {
  if (bytes <= 0) return 0.0;
  return LatencySeconds(src, dst) + bytes / BandwidthBytesPerSec(src, dst);
}

GroupSignature HardwareProfile::SignatureOf(
    const std::vector<GpuId>& group) const {
  return GroupSignature{static_cast<int>(group.size()),
                        topo_->NodesSpanned(group)};
}

double HardwareProfile::RingAllReduceSeconds(
    double bytes, const std::vector<GpuId>& group) const {
  const size_t k = group.size();
  if (k < 2 || bytes <= 0) return 0.0;
  // Ring all-reduce: 2(k-1) phases, each moving bytes/k over the
  // bottleneck link; latency paid once per phase.
  const bool spans_nodes = topo_->NodesSpanned(group) > 1;
  const LinkClass link =
      spans_nodes ? LinkClass::kInterNode : LinkClass::kIntraNode;
  const double bw = topo_->MinGroupBandwidth(group) * link_efficiency_.at(link);
  const double lat = spans_nodes ? topo_->options().inter_node_latency_sec
                                 : topo_->options().intra_node_latency_sec;
  const double phases = 2.0 * static_cast<double>(k - 1);
  return phases * (bytes / static_cast<double>(k) / bw + lat);
}

double HardwareProfile::AllReduceSeconds(
    double bytes, const std::vector<GpuId>& group) const {
  if (group.size() < 2 || bytes <= 0) return 0.0;
  const auto* fitted = FindAllReduceCalibration(SignatureOf(group));
  if (fitted != nullptr) return fitted->Seconds(bytes);
  return RingAllReduceSeconds(bytes, group);
}

void HardwareProfile::SetComputeCalibration(double overhead_sec,
                                            double sec_per_flop) {
  FLEXMOE_CHECK(overhead_sec >= 0 && sec_per_flop > 0);
  compute_overhead_sec_ = overhead_sec;
  sec_per_flop_ = sec_per_flop;
}

void HardwareProfile::SetLinkEfficiency(LinkClass link, double efficiency) {
  FLEXMOE_CHECK(efficiency > 0 && efficiency <= 1.5);
  link_efficiency_[link] = efficiency;
  RebuildLinkCaches();
}

void HardwareProfile::SetAllReduceCalibration(const GroupSignature& sig,
                                              LinearCost cost) {
  allreduce_calibration_[sig] = cost;
}

const LinearCost* HardwareProfile::FindAllReduceCalibration(
    const GroupSignature& sig) const {
  const auto it = allreduce_calibration_.find(sig);
  return it == allreduce_calibration_.end() ? nullptr : &it->second;
}

}  // namespace flexmoe
