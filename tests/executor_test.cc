// Tests for the best-effort placement executor.

#include <gtest/gtest.h>

#include <memory>

#include "placement/executor.h"

namespace flexmoe {
namespace {

struct Fixture {
  std::unique_ptr<Topology> topo;
  HardwareProfile profile;
  ClusterState cluster;

  static Fixture Make() {
    TopologyOptions topt;
    topt.num_nodes = 2;
    topt.gpus_per_node = 4;
    return Fixture(std::make_unique<Topology>(*Topology::Create(topt)));
  }

  explicit Fixture(std::unique_ptr<Topology> t)
      : topo(std::move(t)), profile(topo.get(), GpuSpec{}), cluster(topo.get()) {}
};

Placement MakePlacement(int slots = 2) {
  PlacementOptions o;
  o.num_experts = 8;
  o.num_gpus = 8;
  o.slots_per_gpu = slots;
  return *Placement::ExpertParallel(o);
}

constexpr double kStateBytes = 64e6;

TEST(ExecutorTest, FreeOpsApplyImmediately) {
  Fixture f = Fixture::Make();
  PlacementExecutor exec(ExecutorOptions{}, &f.profile, kStateBytes);
  Placement live = MakePlacement();
  exec.Enqueue({MakeShrink(0, 0)});
  const auto tick = exec.OnStepBoundary(0.0, &f.cluster, &live);
  EXPECT_EQ(tick.ops_applied, 1);
  EXPECT_EQ(live.VExperts(0), 1);
  EXPECT_EQ(exec.pending_ops(), 0u);
  EXPECT_EQ(exec.in_flight_ops(), 0u);
}

TEST(ExecutorTest, TransferOpsApplyAfterCopyCompletes) {
  Fixture f = Fixture::Make();
  PlacementExecutor exec(ExecutorOptions{}, &f.profile, kStateBytes);
  Placement live = MakePlacement();
  // Free a slot on g1, then expand expert 0 there (copy from g0).
  exec.Enqueue({MakeShrink(1, 1), MakeExpand(0, 0, 1)});

  const auto t0 = exec.OnStepBoundary(0.0, &f.cluster, &live);
  EXPECT_EQ(t0.ops_applied, 1);   // the shrink
  EXPECT_EQ(t0.ops_launched, 1);  // the expand transfer started
  EXPECT_EQ(live.VExpertsOn(0, 1), 0);  // not yet live
  EXPECT_EQ(exec.in_flight_ops(), 1u);

  // Before the copy completes nothing changes.
  const auto t1 = exec.OnStepBoundary(1e-6, &f.cluster, &live);
  EXPECT_EQ(t1.ops_applied, 0);
  // After enough simulated time, the expand takes effect.
  const double copy_time = f.profile.P2pSeconds(kStateBytes, 0, 1) * 2.0;
  const auto t2 = exec.OnStepBoundary(copy_time, &f.cluster, &live);
  EXPECT_EQ(t2.ops_applied, 1);
  EXPECT_EQ(live.VExpertsOn(0, 1), 1);
  EXPECT_TRUE(live.Validate().ok());
}

TEST(ExecutorTest, BlockingModeAppliesEverythingNow) {
  Fixture f = Fixture::Make();
  ExecutorOptions opts;
  opts.blocking = true;
  PlacementExecutor exec(opts, &f.profile, kStateBytes);
  Placement live = MakePlacement();
  exec.Enqueue({MakeShrink(1, 1), MakeExpand(0, 0, 1)});
  const auto tick = exec.OnStepBoundary(0.0, &f.cluster, &live);
  EXPECT_EQ(tick.ops_applied, 2);
  EXPECT_GT(tick.blocking_seconds, 0.0);
  EXPECT_EQ(live.VExpertsOn(0, 1), 1);
  EXPECT_EQ(exec.pending_ops(), 0u);
}

TEST(ExecutorTest, StaleExpandSourceIsFixedUp) {
  Fixture f = Fixture::Make();
  PlacementExecutor exec(ExecutorOptions{}, &f.profile, kStateBytes);
  Placement live = MakePlacement();
  // Plan an expand copying from g0, then make g0's replica disappear
  // before the transfer lands: live still hosts expert 0 on g2.
  ASSERT_TRUE(live.RemoveVExpert(2, 2).ok());
  ASSERT_TRUE(live.AddVExpert(0, 2).ok());
  exec.Enqueue({MakeShrink(1, 1), MakeExpand(0, 0, 1)});
  (void)exec.OnStepBoundary(0.0, &f.cluster, &live);
  // Remove the original copy source while the transfer is in flight.
  while (live.VExpertsOn(0, 0) > 0) {
    ASSERT_TRUE(live.RemoveVExpert(0, 0).ok());
  }
  const auto tick = exec.OnStepBoundary(1e9, &f.cluster, &live);
  // The executor re-sources the copy from g2 instead of dropping it.
  EXPECT_EQ(tick.ops_applied, 1);
  EXPECT_EQ(tick.ops_dropped, 0);
  EXPECT_EQ(live.VExpertsOn(0, 1), 1);
}

TEST(ExecutorTest, InvalidatedOpsAreDropped) {
  Fixture f = Fixture::Make();
  PlacementExecutor exec(ExecutorOptions{}, &f.profile, kStateBytes);
  Placement live = MakePlacement(1);  // every expert has exactly 1 vExpert
  // A shrink that would violate the >=1 invariant must be dropped.
  exec.Enqueue({MakeShrink(3, 3)});
  const auto tick = exec.OnStepBoundary(0.0, &f.cluster, &live);
  EXPECT_EQ(tick.ops_applied, 0);
  EXPECT_EQ(tick.ops_dropped, 1);
  EXPECT_EQ(live.VExperts(3), 1);
}

TEST(ExecutorTest, ClearPendingDropsQueueOnly) {
  Fixture f = Fixture::Make();
  PlacementExecutor exec(ExecutorOptions{}, &f.profile, kStateBytes);
  Placement live = MakePlacement();
  exec.Enqueue({MakeShrink(1, 1), MakeExpand(0, 0, 1)});
  (void)exec.OnStepBoundary(0.0, &f.cluster, &live);  // expand in flight
  exec.Enqueue({MakeShrink(2, 2)});
  exec.ClearPending();
  EXPECT_EQ(exec.pending_ops(), 0u);
  EXPECT_EQ(exec.in_flight_ops(), 1u);  // in-flight transfer survives
  const auto tick = exec.OnStepBoundary(1e9, &f.cluster, &live);
  EXPECT_EQ(tick.ops_applied, 1);
}

TEST(ExecutorTest, SequentialBatchesRespectInFlight) {
  Fixture f = Fixture::Make();
  PlacementExecutor exec(ExecutorOptions{}, &f.profile, kStateBytes);
  Placement live = MakePlacement(4);
  // Two transfer plans; the second must not launch while the first flies.
  exec.Enqueue({MakeShrink(1, 1), MakeExpand(0, 0, 1)});
  exec.Enqueue({MakeShrink(3, 3), MakeExpand(2, 2, 3)});
  const auto t0 = exec.OnStepBoundary(0.0, &f.cluster, &live);
  // Both shrinks are free ops in the first batch... the queue pops shrink1
  // + expand(0->1); shrink3+expand(2->3) is a disjoint transfer and joins
  // the same batch.
  EXPECT_GE(t0.ops_launched, 1);
  const auto t1 = exec.OnStepBoundary(1e9, &f.cluster, &live);
  EXPECT_GE(t1.ops_applied, 1);
  EXPECT_EQ(exec.pending_ops(), 0u);
  EXPECT_EQ(exec.in_flight_ops(), 0u);
  EXPECT_TRUE(live.Validate().ok());
}

}  // namespace
}  // namespace flexmoe
