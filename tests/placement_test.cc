// Tests for the vExpert placement: initial expert parallelism, invariants,
// slot accounting, and the placement modification primitives.

#include <gtest/gtest.h>

#include "placement/op_queue.h"
#include "placement/placement.h"
#include "placement/primitives.h"
#include "topology/profile.h"

namespace flexmoe {
namespace {

PlacementOptions Opts(int experts, int gpus, int slots = 0) {
  PlacementOptions o;
  o.num_experts = experts;
  o.num_gpus = gpus;
  o.slots_per_gpu = slots;
  return o;
}

TEST(PlacementOptionsTest, DefaultSlots) {
  EXPECT_EQ(Opts(64, 64).EffectiveSlotsPerGpu(), 4);   // max(4, 2*1)
  EXPECT_EQ(Opts(64, 32).EffectiveSlotsPerGpu(), 4);   // max(4, 2*2)
  EXPECT_EQ(Opts(64, 8).EffectiveSlotsPerGpu(), 16);   // 2*8
  EXPECT_EQ(Opts(8, 8, 2).EffectiveSlotsPerGpu(), 2);  // explicit
}

TEST(PlacementOptionsTest, Validation) {
  EXPECT_TRUE(Opts(64, 64).Validate().ok());
  EXPECT_FALSE(Opts(0, 8).Validate().ok());
  EXPECT_FALSE(Opts(8, 0).Validate().ok());
  // 64 experts on 8 GPUs with 2 slots each: 16 slots < 64 experts.
  EXPECT_FALSE(Opts(64, 8, 2).Validate().ok());
}

TEST(PlacementTest, ExpertParallelInitialState) {
  const Placement p = *Placement::ExpertParallel(Opts(8, 8));
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.slots_per_gpu(), 4);
  for (int e = 0; e < 8; ++e) {
    // Fully packed start: all vExperts of an expert on its home GPU.
    const auto hosts = p.HostGpus(e);
    ASSERT_EQ(hosts.size(), 1u) << e;
    EXPECT_EQ(hosts[0], e);
    EXPECT_EQ(p.VExperts(e), 4);
  }
  for (GpuId g = 0; g < 8; ++g) {
    EXPECT_EQ(p.UsedSlots(g), 4);
    EXPECT_EQ(p.FreeSlots(g), 0);
  }
}

TEST(PlacementTest, MoreExpertsThanGpus) {
  // 64 experts over 32 GPUs: two experts homed per GPU.
  const Placement p = *Placement::ExpertParallel(Opts(64, 32));
  EXPECT_TRUE(p.Validate().ok());
  for (int e = 0; e < 64; ++e) {
    EXPECT_GE(p.VExperts(e), 1) << e;
    EXPECT_EQ(p.HostGpus(e).size(), 1u) << e;
  }
  for (GpuId g = 0; g < 32; ++g) {
    EXPECT_EQ(p.ExpertsOn(g).size(), 2u) << g;
  }
}

TEST(PlacementTest, AddRemoveVExpert) {
  Placement p = *Placement::ExpertParallel(Opts(4, 4, 3));
  // GPU 0 is full (3 slots, all expert 0): adding there must fail.
  EXPECT_FALSE(p.AddVExpert(1, 0).ok());
  // Free a slot, then the add succeeds.
  EXPECT_TRUE(p.RemoveVExpert(0, 0).ok());
  EXPECT_TRUE(p.AddVExpert(1, 0).ok());
  EXPECT_EQ(p.VExpertsOn(1, 0), 1);
  EXPECT_EQ(p.VExperts(1), 4);
  EXPECT_EQ(p.HostGpus(1), (std::vector<GpuId>{0, 1}));
  EXPECT_TRUE(p.Validate().ok());
}

TEST(PlacementTest, CannotShrinkBelowOneVExpert) {
  Placement p = *Placement::ExpertParallel(Opts(4, 4, 1));
  EXPECT_EQ(p.VExperts(2), 1);
  const Status s = p.RemoveVExpert(2, 2);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(PlacementTest, RemoveNonexistentFails) {
  Placement p = *Placement::ExpertParallel(Opts(4, 4, 2));
  EXPECT_FALSE(p.RemoveVExpert(0, 3).ok());  // expert 0 lives on GPU 0
  EXPECT_FALSE(p.AddVExpert(99, 0).ok());    // bad expert id
  EXPECT_FALSE(p.AddVExpert(0, 99).ok());    // bad gpu id
}

TEST(PlacementTest, EqualityAndToString) {
  const Placement a = *Placement::ExpertParallel(Opts(4, 4, 2));
  Placement b = *Placement::ExpertParallel(Opts(4, 4, 2));
  EXPECT_TRUE(a == b);
  ASSERT_TRUE(b.RemoveVExpert(0, 0).ok());
  ASSERT_TRUE(b.AddVExpert(1, 0).ok());
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.ToString().find("e0"), std::string::npos);
}

// --- Primitives ------------------------------------------------------------

TEST(PrimitivesTest, ExpandPacking) {
  Placement p = *Placement::ExpertParallel(Opts(4, 4, 3));
  ASSERT_TRUE(p.RemoveVExpert(1, 1).ok());  // free a slot on GPU 1
  // Packing expand: dst already hosts the expert (src = -1).
  const ModOp op = MakeExpand(1, /*copy_from=*/-1, /*dst=*/1);
  EXPECT_TRUE(ApplyOp(op, &p).ok());
  EXPECT_EQ(p.VExpertsOn(1, 1), 3);
  EXPECT_DOUBLE_EQ(OpTransferBytes(op, 1e6), 0.0);
}

TEST(PrimitivesTest, ExpandWithTransfer) {
  Placement p = *Placement::ExpertParallel(Opts(4, 4, 3));
  ASSERT_TRUE(p.RemoveVExpert(2, 2).ok());
  const ModOp op = MakeExpand(0, /*copy_from=*/0, /*dst=*/2);
  EXPECT_TRUE(ApplyOp(op, &p).ok());
  EXPECT_EQ(p.VExpertsOn(0, 2), 1);
  EXPECT_DOUBLE_EQ(OpTransferBytes(op, 1e6), 1e6);
}

TEST(PrimitivesTest, ExpandBadSourceFails) {
  Placement p = *Placement::ExpertParallel(Opts(4, 4, 3));
  ASSERT_TRUE(p.RemoveVExpert(2, 2).ok());
  // GPU 3 holds no replica of expert 0: invalid copy source.
  EXPECT_FALSE(ApplyOp(MakeExpand(0, 3, 2), &p).ok());
}

TEST(PrimitivesTest, ShrinkIsFree) {
  Placement p = *Placement::ExpertParallel(Opts(4, 4, 3));
  const ModOp op = MakeShrink(0, 0);
  EXPECT_TRUE(ApplyOp(op, &p).ok());
  EXPECT_EQ(p.VExperts(0), 2);
  EXPECT_DOUBLE_EQ(OpTransferBytes(op, 1e6), 0.0);
}

TEST(PrimitivesTest, MigrateSwapsVExperts) {
  Placement p = *Placement::ExpertParallel(Opts(4, 4, 2));
  // Swap expert 0 @ GPU 0 with expert 3 @ GPU 3.
  const ModOp op = MakeMigrate(0, 0, 3, 3);
  EXPECT_TRUE(ApplyOp(op, &p).ok());
  EXPECT_EQ(p.VExpertsOn(0, 3), 1);
  EXPECT_EQ(p.VExpertsOn(3, 0), 1);
  EXPECT_EQ(p.VExpertsOn(0, 0), 1);  // one of two remained
  EXPECT_EQ(p.VExpertsOn(3, 3), 1);
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_DOUBLE_EQ(OpTransferBytes(op, 1e6), 2e6);  // bidirectional
}

TEST(PrimitivesTest, MigratePreconditions) {
  Placement p = *Placement::ExpertParallel(Opts(4, 4, 2));
  // Expert 0 is not on GPU 1.
  EXPECT_FALSE(ApplyOp(MakeMigrate(0, 1, 3, 3), &p).ok());
  // Same-GPU migrate is a no-op and rejected.
  EXPECT_FALSE(ApplyOp(MakeMigrate(0, 0, 1, 0), &p).ok());
  // Placement unchanged by failed ops.
  EXPECT_TRUE(p == *Placement::ExpertParallel(Opts(4, 4, 2)));
}

TEST(PrimitivesTest, MigrateRollsBackWhenPartnerCannotShrink) {
  Placement p = *Placement::ExpertParallel(Opts(4, 4, 1));
  // Every expert has exactly one vExpert: swapping e0@g0 with e1@g1 keeps
  // counts (allowed); but RemoveVExpert guards the >=1 invariant mid-swap.
  const Placement before = p;
  const Status s = ApplyOp(MakeMigrate(0, 0, 1, 1), &p);
  // Single-vExpert experts cannot be removed even transiently; the op must
  // fail cleanly and roll back.
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(p == before);
}

TEST(PrimitivesTest, ToStringIsDescriptive) {
  EXPECT_EQ(MakeExpand(3, 1, 2).ToString(), "Expand(e3, g1->g2)");
  EXPECT_EQ(MakeShrink(4, 7).ToString(), "Shrink(e4, g7)");
  EXPECT_EQ(MakeMigrate(1, 2, 3, 4).ToString(), "Migrate(e1@g2 <-> e3@g4)");
}

// --- Modification queue -----------------------------------------------------

TEST(OpQueueTest, MergesSameEndpoints) {
  ModificationQueue q(1e6);
  q.Enqueue(MakeExpand(0, 0, 1));
  q.Enqueue(MakeExpand(1, 0, 1));  // same (src, dst): merged
  const OpBatch batch = q.PopBatch();
  ASSERT_EQ(batch.transfers.size(), 1u);
  EXPECT_DOUBLE_EQ(batch.transfers[0].bytes, 2e6);
  EXPECT_EQ(batch.transfers[0].ops.size(), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(OpQueueTest, ParallelizesDisjointEndpoints) {
  ModificationQueue q(1e6);
  q.Enqueue(MakeExpand(0, 0, 1));
  q.Enqueue(MakeExpand(1, 2, 3));  // disjoint: same batch
  const OpBatch batch = q.PopBatch();
  EXPECT_EQ(batch.transfers.size(), 2u);
}

TEST(OpQueueTest, ConflictBreaksBatch) {
  ModificationQueue q(1e6);
  q.Enqueue(MakeExpand(0, 0, 1));
  q.Enqueue(MakeExpand(1, 1, 2));  // shares GPU 1: deferred
  const OpBatch first = q.PopBatch();
  EXPECT_EQ(first.transfers.size(), 1u);
  EXPECT_EQ(q.size(), 1u);
  const OpBatch second = q.PopBatch();
  EXPECT_EQ(second.transfers.size(), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(OpQueueTest, FreeOpsAlwaysAbsorbed) {
  ModificationQueue q(1e6);
  q.Enqueue(MakeExpand(0, 0, 1));
  q.Enqueue(MakeShrink(2, 1));         // free: absorbed despite GPU 1 busy
  q.Enqueue(MakeExpand(3, -1, 1));     // packing expand: free
  const OpBatch batch = q.PopBatch();
  EXPECT_EQ(batch.transfers.size(), 1u);
  EXPECT_EQ(batch.free_ops.size(), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(OpQueueTest, ClearDropsPending) {
  ModificationQueue q(1e6);
  q.Enqueue(MakeExpand(0, 0, 1));
  q.Clear();
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.PopBatch().empty());
}

}  // namespace
}  // namespace flexmoe
