// Tests for collective executors, analytic cost helpers and the NCCL group
// LRU cache.

#include <gtest/gtest.h>

#include "collective/comm_cost.h"
#include "collective/engine_ops.h"
#include "collective/nccl_group.h"

namespace flexmoe {
namespace {

Topology MakeTopo(int nodes = 2, int gpus_per_node = 4) {
  TopologyOptions opts;
  opts.num_nodes = nodes;
  opts.gpus_per_node = gpus_per_node;
  return *Topology::Create(opts);
}

TEST(ByteMatrixTest, Construction) {
  ByteMatrix m = MakeByteMatrix(3);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m[0].size(), 3u);
  m[1][2] = 7.0;
  EXPECT_EQ(m(1, 2), 7.0);
}

TEST(A2AAnalyticTest, SingleMessage) {
  const Topology topo = MakeTopo();
  const HardwareProfile p(&topo, GpuSpec{});
  ByteMatrix m = MakeByteMatrix(topo.num_gpus());
  m[0][1] = 1e9;
  // Per-port sums are pure bandwidth (Eq. 8); the phase-level estimate
  // adds pipeline fill + drain latency once.
  const double serialization = 1e9 / p.BandwidthBytesPerSec(0, 1);
  EXPECT_NEAR(A2AReceiverSeconds(m, 1, p), serialization, 1e-12);
  EXPECT_NEAR(A2ASenderSeconds(m, 0, p), serialization, 1e-12);
  EXPECT_NEAR(A2ASecondsAnalytic(m, p),
              serialization + 2.0 * p.LatencySeconds(0, 1), 1e-12);
}

TEST(A2AEngineTest, MatchesAnalyticOnUniformExchange) {
  const Topology topo = MakeTopo();
  const HardwareProfile p(&topo, GpuSpec{});
  ClusterState cluster(&topo);
  const int n = topo.num_gpus();
  ByteMatrix m = MakeByteMatrix(n);
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s != d) m[s][d] = 4e6;
    }
  }
  const CollectiveResult r = ExecAllToAll(&cluster, p, m, 0.0);
  const double analytic = A2ASecondsAnalytic(m, p);
  // The engine serializes coupled transfers; on a uniform exchange the
  // analytic receiver-sum is a good proxy (within a modest factor).
  EXPECT_GT(r.finish, 0.0);
  EXPECT_NEAR(r.finish, analytic, analytic * 0.5);
  EXPECT_GE(r.finish, analytic * 0.8);
}

TEST(A2AEngineTest, EmptyMatrixInstant) {
  const Topology topo = MakeTopo();
  const HardwareProfile p(&topo, GpuSpec{});
  ClusterState cluster(&topo);
  const CollectiveResult r =
      ExecAllToAll(&cluster, p, MakeByteMatrix(topo.num_gpus()), 5.0);
  EXPECT_EQ(r.finish, 5.0);
}

TEST(A2AEngineTest, HotReceiverSerializes) {
  const Topology topo = MakeTopo(1, 8);
  const HardwareProfile p(&topo, GpuSpec{});
  ClusterState cluster(&topo);
  ByteMatrix m = MakeByteMatrix(8);
  // Everyone sends to GPU 0: ingress of 0 is the bottleneck.
  for (int s = 1; s < 8; ++s) m[s][0] = 1e8;
  const CollectiveResult r = ExecAllToAll(&cluster, p, m, 0.0);
  const double per_msg = 1e8 / p.BandwidthBytesPerSec(1, 0);
  EXPECT_GE(r.finish, 7.0 * per_msg);  // serialized at the receiver
}

TEST(RingAllReduceEngineTest, MatchesAnalyticFormula) {
  const Topology topo = MakeTopo();
  const HardwareProfile p(&topo, GpuSpec{});
  ClusterState cluster(&topo);
  const std::vector<GpuId> group = {0, 1, 2, 3};
  const double bytes = 64e6;
  const CollectiveResult r = ExecRingAllReduce(&cluster, p, bytes, group, 0.0);
  const double analytic = p.AllReduceSeconds(bytes, group);
  EXPECT_NEAR(r.finish, analytic, analytic * 0.05);
}

TEST(RingAllReduceEngineTest, WaitsForBusyMember) {
  const Topology topo = MakeTopo();
  const HardwareProfile p(&topo, GpuSpec{});
  ClusterState cluster(&topo);
  cluster.egress(2).Reserve(0.0, 1.0);  // member 2 busy until t=1
  const CollectiveResult r =
      ExecRingAllReduce(&cluster, p, 1e6, {0, 1, 2}, 0.0);
  EXPECT_GE(r.start, 0.0);
  EXPECT_GE(r.finish, 1.0);  // collective cannot finish before member frees
}

TEST(RingAllReduceEngineTest, DisjointGroupsOverlap) {
  const Topology topo = MakeTopo(1, 8);
  const HardwareProfile p(&topo, GpuSpec{});
  ClusterState cluster(&topo);
  const double bytes = 64e6;
  const CollectiveResult r1 =
      ExecRingAllReduce(&cluster, p, bytes, {0, 1}, 0.0);
  const CollectiveResult r2 =
      ExecRingAllReduce(&cluster, p, bytes, {2, 3}, 0.0);
  // Disjoint groups use disjoint NICs: near-identical finish times.
  EXPECT_NEAR(r1.finish, r2.finish, r1.finish * 0.01);
}

TEST(P2pEngineTest, SerializesOnSharedEndpoint) {
  const Topology topo = MakeTopo();
  const HardwareProfile p(&topo, GpuSpec{});
  ClusterState cluster(&topo);
  const CollectiveResult a = ExecP2p(&cluster, p, 1e8, 0, 1, 0.0);
  const CollectiveResult b = ExecP2p(&cluster, p, 1e8, 0, 2, 0.0);
  // The shared egress port of GPU 0 serializes: b's send cannot begin
  // before a's serialization time has drained.
  const double a_serialization = 1e8 / p.BandwidthBytesPerSec(0, 1);
  EXPECT_GE(b.start, a.start + a_serialization - 1e-12);
  EXPECT_GT(b.finish, a.finish);
}

TEST(BackgroundCopyTest, UsesAdjustStreamsOnly) {
  const Topology topo = MakeTopo();
  const HardwareProfile p(&topo, GpuSpec{});
  ClusterState cluster(&topo);
  const CollectiveResult r =
      ExecBackgroundCopy(&cluster, p, 1e8, 0, 1, 0.0, 1.25);
  EXPECT_GT(r.finish, 0.0);
  // Training-critical streams untouched.
  EXPECT_EQ(cluster.GpuFreeAt(0), 0.0);
  EXPECT_EQ(cluster.GpuFreeAt(1), 0.0);
  EXPECT_GT(cluster.adjust(0).busy_until(), 0.0);
  // Slowdown stretches the copy relative to a foreground P2P.
  ClusterState fresh(&topo);
  const CollectiveResult fg = ExecP2p(&fresh, p, 1e8, 0, 1, 0.0);
  EXPECT_GT(r.finish, fg.finish);
}

TEST(BroadcastTest, ReachesAllAndScalesWithBytes) {
  const Topology topo = MakeTopo(1, 8);
  const HardwareProfile p(&topo, GpuSpec{});
  ClusterState cluster(&topo);
  std::vector<GpuId> all = {0, 1, 2, 3, 4, 5, 6, 7};
  const CollectiveResult small =
      ExecBroadcast(&cluster, p, 1e6, 0, all, 0.0);
  ClusterState cluster2(&topo);
  const CollectiveResult big =
      ExecBroadcast(&cluster2, p, 64e6, 0, all, 0.0);
  EXPECT_GT(small.finish, 0.0);
  EXPECT_GT(big.finish, small.finish);
}

TEST(ComputeEngineTest, SerializesOnComputeStream) {
  const Topology topo = MakeTopo();
  const HardwareProfile p(&topo, GpuSpec{});
  ClusterState cluster(&topo);
  const double t1 = ExecCompute(&cluster, p, 0, 4096, 1e7, 0.0);
  const double t2 = ExecCompute(&cluster, p, 0, 4096, 1e7, 0.0);
  EXPECT_NEAR(t2, 2.0 * t1, 1e-9);
  // Different GPU: independent.
  const double t3 = ExecCompute(&cluster, p, 1, 4096, 1e7, 0.0);
  EXPECT_NEAR(t3, t1, 1e-9);
}

// --- NCCL group cache ----------------------------------------------------

TEST(NcclGroupCacheTest, CanonicalKey) {
  EXPECT_EQ(CanonicalGroupKey({3, 1, 2, 1}), (GroupKey{1, 2, 3}));
  EXPECT_EQ(CanonicalGroupKey({}), GroupKey{});
}

TEST(NcclGroupCacheTest, MissThenHit) {
  NcclGroupCache cache = *NcclGroupCache::Create({4, 0.1});
  EXPECT_DOUBLE_EQ(cache.Acquire({0, 1}), 0.1);  // miss
  EXPECT_DOUBLE_EQ(cache.Acquire({1, 0}), 0.0);  // hit (order-insensitive)
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_TRUE(cache.Contains({0, 1}));
}

TEST(NcclGroupCacheTest, TrivialGroupsFree) {
  NcclGroupCache cache = *NcclGroupCache::Create({4, 0.1});
  EXPECT_DOUBLE_EQ(cache.Acquire({3}), 0.0);
  EXPECT_DOUBLE_EQ(cache.Acquire({}), 0.0);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(NcclGroupCacheTest, LruEviction) {
  NcclGroupCache cache = *NcclGroupCache::Create({2, 0.1});
  cache.Acquire({0, 1});
  cache.Acquire({2, 3});
  cache.Acquire({0, 1});      // refresh {0,1}
  cache.Acquire({4, 5});      // evicts {2,3} (LRU)
  EXPECT_TRUE(cache.Contains({0, 1}));
  EXPECT_FALSE(cache.Contains({2, 3}));
  EXPECT_TRUE(cache.Contains({4, 5}));
  EXPECT_EQ(cache.stats().evictions, 1);
  // Re-acquiring the evicted group costs again.
  EXPECT_DOUBLE_EQ(cache.Acquire({2, 3}), 0.1);
}

TEST(NcclGroupCacheTest, OptionsValidation) {
  EXPECT_FALSE(NcclGroupCache::Create({0, 0.1}).ok());
  EXPECT_FALSE(NcclGroupCache::Create({4, -1.0}).ok());
}

}  // namespace
}  // namespace flexmoe
