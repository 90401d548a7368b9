#include "collective/profiler.h"

#include <algorithm>
#include <cmath>

#include "util/status.h"

namespace flexmoe {

namespace {

/// Message sizes (bytes) probed for the P2P and AllReduce fits.
constexpr double kMessageBytes[] = {1 << 16, 1 << 20, 16 << 20, 64 << 20};

}  // namespace

LinearCost FitLinear(const std::vector<double>& xs,
                     const std::vector<double>& ys) {
  FLEXMOE_CHECK(xs.size() == ys.size());
  FLEXMOE_CHECK(xs.size() >= 2);
  const double n = static_cast<double>(xs.size());
  double xbar = 0.0, ybar = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    xbar += xs[i];
    ybar += ys[i];
  }
  xbar /= n;
  ybar /= n;
  double cov = 0.0, var = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    cov += (xs[i] - xbar) * (ys[i] - ybar);
    var += (xs[i] - xbar) * (xs[i] - xbar);
  }
  FLEXMOE_CHECK_MSG(var > 0.0, "degenerate x values in linear fit");
  LinearCost fit;
  fit.beta_sec_per_byte = cov / var;
  fit.alpha_sec = std::max(0.0, ybar - fit.beta_sec_per_byte * xbar);
  return fit;
}

Status ProfilerOptions::Validate() const {
  if (compute_tokens.size() < 2) {
    return Status::InvalidArgument("need >= 2 compute probe sizes");
  }
  if (max_group_size < 2) {
    return Status::InvalidArgument("max_group_size must be >= 2");
  }
  return Status::OK();
}

Profiler::Profiler(const Topology* topo, const GpuSpec& spec,
                   const ProfilerOptions& options)
    : topo_(topo), spec_(spec), options_(options) {
  FLEXMOE_CHECK(topo != nullptr);
}

Result<HardwareProfile> Profiler::Calibrate(double flops_per_token) const {
  FLEXMOE_RETURN_IF_ERROR(options_.Validate());
  if (flops_per_token <= 0) {
    return Status::InvalidArgument("flops_per_token must be positive");
  }
  HardwareProfile profile(topo_, spec_);
  CalibrateCompute(flops_per_token, &profile);
  CalibrateLinks(&profile);
  CalibrateAllReduce(&profile);
  return profile;
}

void Profiler::CalibrateCompute(double flops_per_token,
                                HardwareProfile* p) const {
  ClusterState cluster(topo_);
  std::vector<double> xs, ys;
  double t = 0.0;
  for (double tokens : options_.compute_tokens) {
    const double end = ExecCompute(&cluster, *p, /*gpu=*/0, tokens,
                                   flops_per_token, t);
    xs.push_back(tokens);
    ys.push_back(end - t);
    t = end;
  }
  const LinearCost fit = FitLinear(xs, ys);
  // fit.beta is sec/token at this FLOP intensity; convert to sec/FLOP so
  // the calibration transfers across expert sizes.
  p->SetComputeCalibration(fit.alpha_sec,
                           fit.beta_sec_per_byte / flops_per_token);
}

void Profiler::CalibrateLinks(HardwareProfile* p) const {
  struct Probe {
    LinkClass link;
    GpuId src;
    GpuId dst;
  };
  std::vector<Probe> probes;
  probes.push_back({LinkClass::kLoopback, 0, 0});
  if (topo_->gpus_per_node() > 1) {
    probes.push_back({LinkClass::kIntraNode, 0, 1});
  }
  if (topo_->num_nodes() > 1) {
    probes.push_back({LinkClass::kInterNode, 0, topo_->gpus_per_node()});
  }
  for (const Probe& probe : probes) {
    ClusterState cluster(topo_);
    std::vector<double> xs, ys;
    double t = 0.0;
    for (double bytes : kMessageBytes) {
      const CollectiveResult r =
          ExecP2p(&cluster, *p, bytes, probe.src, probe.dst, t);
      xs.push_back(bytes);
      ys.push_back(r.finish - t);
      t = r.finish;
    }
    const LinearCost fit = FitLinear(xs, ys);
    const double nominal = topo_->BandwidthBytesPerSec(probe.src, probe.dst);
    const double measured = 1.0 / fit.beta_sec_per_byte;
    p->SetLinkEfficiency(probe.link, std::min(1.5, measured / nominal));
  }
}

void Profiler::CalibrateAllReduce(HardwareProfile* p) const {
  const int max_k = std::min(options_.max_group_size, topo_->num_gpus());
  for (int k = 2; k <= max_k; ++k) {
    for (bool multi_node : {false, true}) {
      if (multi_node && topo_->num_nodes() < 2) continue;
      if (!multi_node && k > topo_->gpus_per_node()) continue;
      const std::vector<GpuId> group = RepresentativeGroup(k, multi_node);
      ClusterState cluster(topo_);
      std::vector<double> xs, ys;
      double t = 0.0;
      for (double bytes : kMessageBytes) {
        const CollectiveResult r =
            ExecRingAllReduce(&cluster, *p, bytes, group, t);
        xs.push_back(bytes);
        ys.push_back(r.finish - t);
        t = r.finish;
      }
      p->SetAllReduceCalibration(p->SignatureOf(group), FitLinear(xs, ys));
    }
  }
}

std::vector<GpuId> Profiler::RepresentativeGroup(int k,
                                                 bool force_multi_node) const {
  std::vector<GpuId> group;
  group.reserve(static_cast<size_t>(k));
  if (!force_multi_node) {
    for (int i = 0; i < k; ++i) group.push_back(i);
    return group;
  }
  // Round-robin across nodes to span as many nodes as possible.
  const int nodes = topo_->num_nodes();
  for (int i = 0; i < k; ++i) {
    const int node = i % nodes;
    const int slot = i / nodes;
    group.push_back(node * topo_->gpus_per_node() +
                    slot % topo_->gpus_per_node());
  }
  std::sort(group.begin(), group.end());
  group.erase(std::unique(group.begin(), group.end()), group.end());
  return group;
}

}  // namespace flexmoe
