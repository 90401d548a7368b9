// Tests for the discrete-event engine: event ordering, clock semantics,
// stream serialization, and cluster-state accounting.

#include <gtest/gtest.h>

#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/stream.h"
#include "topology/topology.h"

namespace flexmoe {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.Push(3.0, [&] { fired.push_back(3); });
  q.Push(1.0, [&] { fired.push_back(1); });
  q.Push(2.0, [&] { fired.push_back(2); });
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.Push(1.0, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, PeekAndClear) {
  EventQueue q;
  q.Push(5.0, [] {});
  q.Push(2.0, [] {});
  EXPECT_EQ(q.PeekTime(), 2.0);
  EXPECT_EQ(q.size(), 2u);
  q.Clear();
  EXPECT_TRUE(q.empty());
}

TEST(SimEngineTest, RunAdvancesClock) {
  SimEngine engine;
  double seen = -1.0;
  engine.ScheduleAt(2.5, [&] { seen = engine.now(); });
  engine.Run();
  EXPECT_EQ(seen, 2.5);
  EXPECT_EQ(engine.now(), 2.5);
}

TEST(SimEngineTest, ScheduleAfterIsRelative) {
  SimEngine engine;
  std::vector<double> times;
  engine.ScheduleAfter(1.0, [&] {
    times.push_back(engine.now());
    engine.ScheduleAfter(2.0, [&] { times.push_back(engine.now()); });
  });
  engine.Run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 3.0}));
}

TEST(SimEngineTest, RunUntilFiresOnlyDueEvents) {
  SimEngine engine;
  int fired = 0;
  engine.ScheduleAt(1.0, [&] { ++fired; });
  engine.ScheduleAt(10.0, [&] { ++fired; });
  engine.RunUntil(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), 5.0);
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimEngineTest, SchedulingInPastDies) {
  SimEngine engine;
  engine.ScheduleAt(5.0, [] {});
  engine.Run();
  EXPECT_DEATH(engine.ScheduleAt(1.0, [] {}), "past");
}

TEST(StreamTest, SerializesReservations) {
  Stream s;
  EXPECT_EQ(s.Reserve(0.0, 2.0), 0.0);  // starts immediately
  EXPECT_EQ(s.Reserve(0.0, 1.0), 2.0);  // queues behind the first
  EXPECT_EQ(s.Reserve(5.0, 1.0), 5.0);  // idle gap honoured
  EXPECT_EQ(s.busy_until(), 6.0);
  EXPECT_EQ(s.busy_time(), 4.0);
}

TEST(StreamTest, ReserveIntervalExtends) {
  Stream s;
  s.ReserveInterval(1.0, 3.0);
  EXPECT_EQ(s.busy_until(), 3.0);
  s.ReserveInterval(2.0, 2.5);  // earlier end does not shrink busy_until
  EXPECT_EQ(s.busy_until(), 3.0);
  EXPECT_EQ(s.busy_time(), 2.5);
}

TEST(StreamTest, Reset) {
  Stream s;
  s.Reserve(0.0, 4.0);
  s.Reset();
  EXPECT_EQ(s.busy_until(), 0.0);
  EXPECT_EQ(s.busy_time(), 0.0);
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
  EXPECT_EQ(cluster.AllFreeAt(), 5.0);
}

TEST(ClusterStateTest, ComputeUtilization) {
  TopologyOptions opts;
  opts.num_nodes = 1;
  opts.gpus_per_node = 2;
  const Topology topo = *Topology::Create(opts);
  ClusterState cluster(&topo);
  cluster.compute(0).Reserve(0.0, 4.0);
  cluster.compute(1).Reserve(0.0, 2.0);
  // busy = 6 over 2 GPUs x 10s elapsed.
  EXPECT_NEAR(cluster.ComputeUtilization(10.0), 0.3, 1e-12);
  EXPECT_EQ(cluster.ComputeUtilization(0.0), 0.0);
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
  EXPECT_EQ(cluster.AllFreeAt(), 9.0);  // but they do show in AllFreeAt
}

}  // namespace
}  // namespace flexmoe
