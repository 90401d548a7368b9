// Tests for the cluster topology model and the analytic hardware profile.

#include <gtest/gtest.h>

#include "topology/profile.h"
#include "topology/topology.h"

namespace flexmoe {
namespace {

Topology MakeTopo(int nodes = 4, int gpus_per_node = 8) {
  TopologyOptions opts;
  opts.num_nodes = nodes;
  opts.gpus_per_node = gpus_per_node;
  return *Topology::Create(opts);
}

TEST(TopologyTest, ValidationRejectsBadOptions) {
  TopologyOptions opts;
  opts.num_nodes = 0;
  EXPECT_FALSE(Topology::Create(opts).ok());
  opts = TopologyOptions{};
  opts.inter_node_bytes_per_sec = -1;
  EXPECT_FALSE(Topology::Create(opts).ok());
  opts = TopologyOptions{};
  opts.intra_node_latency_sec = -1e-6;
  EXPECT_FALSE(Topology::Create(opts).ok());
}

TEST(TopologyTest, NodeMapping) {
  const Topology topo = MakeTopo(4, 8);
  EXPECT_EQ(topo.num_gpus(), 32);
  EXPECT_EQ(topo.NodeOf(0), 0);
  EXPECT_EQ(topo.NodeOf(7), 0);
  EXPECT_EQ(topo.NodeOf(8), 1);
  EXPECT_EQ(topo.NodeOf(31), 3);
  EXPECT_TRUE(topo.SameNode(0, 7));
  EXPECT_FALSE(topo.SameNode(7, 8));
}

TEST(TopologyTest, LinkClasses) {
  const Topology topo = MakeTopo();
  EXPECT_EQ(topo.LinkBetween(3, 3), LinkClass::kLoopback);
  EXPECT_EQ(topo.LinkBetween(0, 5), LinkClass::kIntraNode);
  EXPECT_EQ(topo.LinkBetween(0, 12), LinkClass::kInterNode);
}

TEST(TopologyTest, BandwidthOrdering) {
  const Topology topo = MakeTopo();
  // loopback > intra-node > inter-node for the A100 preset.
  EXPECT_GT(topo.BandwidthBytesPerSec(0, 0), topo.BandwidthBytesPerSec(0, 1));
  EXPECT_GT(topo.BandwidthBytesPerSec(0, 1), topo.BandwidthBytesPerSec(0, 8));
  EXPECT_LT(topo.LatencySeconds(0, 1), topo.LatencySeconds(0, 8));
}

TEST(TopologyTest, GpusOnNode) {
  const Topology topo = MakeTopo(2, 4);
  const auto gpus = topo.GpusOnNode(1);
  EXPECT_EQ(gpus, (std::vector<GpuId>{4, 5, 6, 7}));
}

TEST(TopologyTest, NodesSpanned) {
  const Topology topo = MakeTopo(4, 8);
  EXPECT_EQ(topo.NodesSpanned({0, 1, 2}), 1);
  EXPECT_EQ(topo.NodesSpanned({0, 8, 16}), 3);
  EXPECT_EQ(topo.NodesSpanned({}), 0);
}

TEST(TopologyTest, MinGroupBandwidth) {
  const Topology topo = MakeTopo();
  EXPECT_DOUBLE_EQ(topo.MinGroupBandwidth({0, 1}),
                   topo.options().intra_node_bytes_per_sec);
  EXPECT_DOUBLE_EQ(topo.MinGroupBandwidth({0, 8}),
                   topo.options().inter_node_bytes_per_sec);
}

TEST(TopologyTest, AzurePreset) {
  const TopologyOptions opts = AzureA100Options(64);
  EXPECT_EQ(opts.num_nodes, 8);
  EXPECT_EQ(opts.gpus_per_node, 8);
  EXPECT_DEATH(AzureA100Options(12), "multiple of 8");
}

TEST(GpuSpecTest, Validation) {
  GpuSpec spec;
  EXPECT_TRUE(spec.Validate().ok());
  spec.efficiency = 1.5;
  EXPECT_FALSE(spec.Validate().ok());
  spec = GpuSpec{};
  spec.peak_flops = 0;
  EXPECT_FALSE(spec.Validate().ok());
}

TEST(HardwareProfileTest, ComputeScaling) {
  const Topology topo = MakeTopo();
  const GpuSpec spec;
  const HardwareProfile p(&topo, spec);
  const double flops_per_token = 1e7;
  const double t1 = p.ComputeSeconds(1000, flops_per_token);
  const double t2 = p.ComputeSeconds(2000, flops_per_token);
  // Marginal cost doubles; the fixed overhead does not.
  EXPECT_GT(t2, t1);
  EXPECT_NEAR(t2 - t1, 1000 * flops_per_token /
                           (spec.peak_flops * spec.efficiency),
              1e-9);
  EXPECT_EQ(p.ComputeSeconds(0, flops_per_token), 0.0);
}

TEST(HardwareProfileTest, TokensPerSecond) {
  const Topology topo = MakeTopo();
  const GpuSpec spec;
  const HardwareProfile p(&topo, spec);
  const double tps = p.TokensPerSecond(1e7);
  EXPECT_NEAR(tps, spec.peak_flops * spec.efficiency / 1e7, 1e-3);
}

TEST(HardwareProfileTest, P2pUsesLinkBandwidth) {
  const Topology topo = MakeTopo();
  const HardwareProfile p(&topo, GpuSpec{});
  const double bytes = 1e9;
  const double intra = p.P2pSeconds(bytes, 0, 1);
  const double inter = p.P2pSeconds(bytes, 0, 8);
  EXPECT_LT(intra, inter);
  EXPECT_NEAR(intra,
              topo.LatencySeconds(0, 1) +
                  bytes / topo.BandwidthBytesPerSec(0, 1),
              1e-12);
}

TEST(HardwareProfileTest, RingAllReduceFormula) {
  const Topology topo = MakeTopo();
  const HardwareProfile p(&topo, GpuSpec{});
  const double bytes = 64e6;
  const std::vector<GpuId> group = {0, 1, 2, 3};  // intra-node, k = 4
  const double expected =
      2.0 * 3.0 *
      (bytes / 4.0 / topo.options().intra_node_bytes_per_sec +
       topo.options().intra_node_latency_sec);
  EXPECT_NEAR(p.AllReduceSeconds(bytes, group), expected, 1e-9);
}

TEST(HardwareProfileTest, AllReduceTrivialGroups) {
  const Topology topo = MakeTopo();
  const HardwareProfile p(&topo, GpuSpec{});
  EXPECT_EQ(p.AllReduceSeconds(1e6, {0}), 0.0);
  EXPECT_EQ(p.AllReduceSeconds(1e6, {}), 0.0);
  EXPECT_EQ(p.AllReduceSeconds(0.0, {0, 1}), 0.0);
}

TEST(HardwareProfileTest, CrossNodeAllReduceSlower) {
  const Topology topo = MakeTopo();
  const HardwareProfile p(&topo, GpuSpec{});
  const double bytes = 64e6;
  EXPECT_LT(p.AllReduceSeconds(bytes, {0, 1, 2, 3}),
            p.AllReduceSeconds(bytes, {0, 8, 16, 24}));
}

TEST(HardwareProfileTest, CalibrationOverrides) {
  const Topology topo = MakeTopo();
  HardwareProfile p(&topo, GpuSpec{});
  // Link efficiency scales bandwidth down.
  const double before = p.BandwidthBytesPerSec(0, 1);
  p.SetLinkEfficiency(LinkClass::kIntraNode, 0.5);
  EXPECT_NEAR(p.BandwidthBytesPerSec(0, 1), before * 0.5, 1.0);

  // AllReduce calibration entry takes precedence over the ring formula.
  const GroupSignature sig = p.SignatureOf({0, 1, 2});
  p.SetAllReduceCalibration(sig, {0.001, 1e-9});
  EXPECT_NEAR(p.AllReduceSeconds(1e6, {0, 1, 2}), 0.001 + 1e-3, 1e-9);
  // Unrelated signatures still use the formula.
  EXPECT_EQ(p.FindAllReduceCalibration(p.SignatureOf({0, 1})), nullptr);
}

TEST(HardwareProfileTest, GroupSignature) {
  const Topology topo = MakeTopo();
  const HardwareProfile p(&topo, GpuSpec{});
  const GroupSignature a = p.SignatureOf({0, 1, 2, 3});
  EXPECT_EQ(a.num_gpus, 4);
  EXPECT_EQ(a.num_nodes, 1);
  const GroupSignature b = p.SignatureOf({0, 8, 16, 24});
  EXPECT_EQ(b.num_nodes, 4);
  EXPECT_TRUE(a == GroupSignature({4, 1}));
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a < b || b < a);
}

}  // namespace
}  // namespace flexmoe
