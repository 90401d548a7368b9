// Tests for the simulated hardware timelines: stream serialization and
// cluster-state accounting.

#include <gtest/gtest.h>

#include "sim/stream.h"
#include "topology/topology.h"

namespace flexmoe {
namespace {

TEST(StreamTest, SerializesReservations) {
  Stream s;
  EXPECT_EQ(s.Reserve(0.0, 2.0), 0.0);  // starts immediately
  EXPECT_EQ(s.Reserve(0.0, 1.0), 2.0);  // queues behind the first
  EXPECT_EQ(s.Reserve(5.0, 1.0), 5.0);  // idle gap honoured
  EXPECT_EQ(s.busy_until(), 6.0);
}

TEST(StreamTest, ReserveIntervalExtends) {
  Stream s;
  s.ReserveInterval(1.0, 3.0);
  EXPECT_EQ(s.busy_until(), 3.0);
  s.ReserveInterval(2.0, 2.5);  // earlier end does not shrink busy_until
  EXPECT_EQ(s.busy_until(), 3.0);
}

TEST(ClusterStateTest, PerGpuStreams) {
  TopologyOptions opts;
  opts.num_nodes = 1;
  opts.gpus_per_node = 4;
  const Topology topo = *Topology::Create(opts);
  ClusterState cluster(&topo);
  EXPECT_EQ(cluster.num_gpus(), 4);

  cluster.compute(2).Reserve(0.0, 3.0);
  cluster.egress(1).Reserve(0.0, 5.0);
  EXPECT_EQ(cluster.GpuFreeAt(2), 3.0);
  EXPECT_EQ(cluster.GpuFreeAt(1), 5.0);
  EXPECT_EQ(cluster.GpuFreeAt(0), 0.0);
}

TEST(ClusterStateTest, BlockAllPushesFrontier) {
  TopologyOptions opts;
  opts.num_nodes = 1;
  opts.gpus_per_node = 2;
  const Topology topo = *Topology::Create(opts);
  ClusterState cluster(&topo);
  cluster.BlockAll(1.0, 2.0);
  for (int g = 0; g < 2; ++g) {
    EXPECT_GE(cluster.GpuFreeAt(g), 3.0);
  }
}

TEST(ClusterStateTest, AdjustStreamSeparate) {
  TopologyOptions opts;
  opts.num_nodes = 1;
  opts.gpus_per_node = 2;
  const Topology topo = *Topology::Create(opts);
  ClusterState cluster(&topo);
  cluster.adjust(0).Reserve(0.0, 9.0);
  // Background copies do not block the training-critical frontier of GPU 0.
  EXPECT_EQ(cluster.GpuFreeAt(0), 0.0);
  EXPECT_EQ(cluster.adjust(0).busy_until(), 9.0);  // they stay on adjust
}

}  // namespace
}  // namespace flexmoe
