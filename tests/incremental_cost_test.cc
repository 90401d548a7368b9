// Property tests for LayerCostState (DESIGN.md Section 10): randomized
// Apply/Undo walks must agree with a from-scratch EstimateLayer evaluation
// EXACTLY (== on doubles, not near) at every depth, for both objectives
// (include_sync on/off). Exact agreement is the contract the planner's
// byte-identity guarantee rests on.

#include <gtest/gtest.h>

#include "allocation_count.h"
#include "core/incremental_cost.h"
#include "test_env.h"
#include "util/rng.h"

namespace flexmoe {
namespace {

Placement MakePlacement(int experts, int gpus, int slots) {
  PlacementOptions o;
  o.num_experts = experts;
  o.num_gpus = gpus;
  o.slots_per_gpu = slots;
  return *Placement::ExpertParallel(o);
}

Assignment RandomAssignment(Rng& rng, int experts, int gpus) {
  Assignment a(experts, gpus);
  for (int e = 0; e < experts; ++e) {
    // A few experts receive no tokens at all (their compute terms must
    // vanish exactly); the rest are skewed so the hot/cold machinery has
    // something to chew on.
    if (rng.UniformInt(8) == 0) continue;
    const int64_t scale = 1 + rng.UniformInt(4000);
    for (int g = 0; g < gpus; ++g) {
      a.set(e, g, static_cast<int64_t>(rng.UniformInt(scale)));
    }
  }
  return a;
}

/// A random op with in-bounds ids; roughly half are infeasible on any
/// given placement, exercising the rejection path.
ModOp RandomOp(Rng& rng, const Placement& p) {
  const int experts = p.num_experts();
  const int gpus = p.num_gpus();
  const int e = static_cast<int>(rng.UniformInt(experts));
  switch (rng.UniformInt(3)) {
    case 0:
      return MakeShrink(e, static_cast<GpuId>(rng.UniformInt(gpus)));
    case 1: {
      const GpuId dst = static_cast<GpuId>(rng.UniformInt(gpus));
      const GpuId src = rng.UniformInt(2) == 0
                            ? -1
                            : static_cast<GpuId>(rng.UniformInt(gpus));
      return MakeExpand(e, src, dst);
    }
    default:
      return MakeMigrate(e, static_cast<GpuId>(rng.UniformInt(gpus)),
                         static_cast<int>(rng.UniformInt(experts)),
                         static_cast<GpuId>(rng.UniformInt(gpus)));
  }
}

/// The exact-agreement oracle: every cached quantity equals a from-scratch
/// route + estimate of the same (assignment, placement) pair.
void ExpectMatchesScratch(const CostModel& cost, const Assignment& a,
                          const Placement& p, bool include_sync,
                          const LayerCostState& state) {
  const RoutedAssignment routed = FlexibleRouter::Route(a, p);
  const LayerCostEstimate ref = cost.EstimateLayer(routed, p, include_sync);
  ASSERT_EQ(state.per_gpu_seconds().size(), ref.per_gpu_seconds.size());
  for (size_t g = 0; g < ref.per_gpu_seconds.size(); ++g) {
    ASSERT_EQ(state.per_gpu_seconds()[g], ref.per_gpu_seconds[g])
        << "per-GPU total diverged at g" << g;
  }
  ASSERT_EQ(state.TotalSeconds(), ref.total_seconds);
  ASSERT_EQ(state.Score(), Score8Norm(ref.per_gpu_seconds));
  ASSERT_EQ(state.per_gpu_compute_tokens(), routed.PerGpuComputeTokens());
  for (int e = 0; e < a.num_experts(); ++e) {
    ASSERT_EQ(state.vexpert_capacities()[static_cast<size_t>(e)],
              static_cast<double>(a.ExpertTotal(e)) /
                  static_cast<double>(p.VExperts(e)))
        << "capacity diverged at e" << e;
  }
  ASSERT_EQ(state.per_gpu_compute(), ref.per_gpu_compute);
  ASSERT_EQ(state.per_gpu_a2a(), ref.per_gpu_a2a);
  ASSERT_EQ(state.per_gpu_sync(), ref.per_gpu_sync);
  // The partials reach the planner through BestChunkDepth; it must pick
  // what the from-scratch breakdown picks, fresh and against every
  // incumbent depth.
  ASSERT_EQ(state.BestChunkDepth(),
            cost.BestChunkDepth(ref.per_gpu_compute, ref.per_gpu_a2a,
                                ref.per_gpu_sync));
  for (const int incumbent : CostModel::kChunkDepthCandidates) {
    ASSERT_EQ(state.BestChunkDepth(incumbent),
              cost.BestChunkDepth(ref.per_gpu_compute, ref.per_gpu_a2a,
                                  ref.per_gpu_sync, incumbent))
        << "incumbent " << incumbent;
  }
}

/// One randomized walk: Apply random ops (feasible and not), Undo at
/// random, compare against the oracle at every step, then unwind to depth
/// zero and require bitwise restoration of the reset point.
void RunRandomWalk(bool include_sync, uint64_t seed) {
  SCOPED_TRACE(testing::Message()
               << "include_sync=" << include_sync << " seed=" << seed);
  TestEnv env = TestEnv::MakeGrid(2, 4);
  ModelConfig model = GptMoES();
  model.num_experts = 12;
  const CostModel cost(&env.profile, ShapeFromModel(model));

  Rng rng(seed);
  const Assignment a = RandomAssignment(rng, model.num_experts, 8);
  Placement start = MakePlacement(model.num_experts, 8, /*slots=*/3);
  for (int i = 0; i < 16; ++i) {
    const Status ignored = ApplyOp(RandomOp(rng, start), &start);
    (void)ignored;
  }

  LayerCostState state(&cost, include_sync);
  state.Reset(a, start);
  ExpectMatchesScratch(cost, a, start, include_sync, state);

  // `mirror[d]` is the placement the state must equal at depth d.
  std::vector<Placement> mirror{start};
  int applies = 0;
  int rejects = 0;
  for (int it = 0; it < 1500; ++it) {
    if (state.depth() > 0 && rng.UniformInt(4) == 0) {
      state.Undo();
      mirror.pop_back();
      ExpectMatchesScratch(cost, a, mirror.back(), include_sync, state);
      continue;
    }
    const ModOp op = RandomOp(rng, mirror.back());
    Placement trial = mirror.back();
    const bool feasible = ApplyOp(op, &trial).ok();
    const double before = state.TotalSeconds();
    const int depth_before = state.depth();
    ASSERT_EQ(state.Apply(op), feasible) << op.ToString();
    if (!feasible) {
      // Rejection must leave the state untouched.
      ASSERT_EQ(state.TotalSeconds(), before);
      ASSERT_EQ(state.depth(), depth_before);
      ++rejects;
      continue;
    }
    mirror.push_back(std::move(trial));
    ++applies;
    ExpectMatchesScratch(cost, a, mirror.back(), include_sync, state);
  }
  // The walk must have exercised both paths.
  EXPECT_GT(applies, 25);
  EXPECT_GT(rejects, 100);

  while (state.depth() > 0) {
    state.Undo();
    mirror.pop_back();
  }
  ExpectMatchesScratch(cost, a, mirror.front(), include_sync, state);
}

TEST(LayerCostStateTest, RandomWalkTrainingObjective) {
  RunRandomWalk(/*include_sync=*/true, 1);
  RunRandomWalk(/*include_sync=*/true, 2);
}

TEST(LayerCostStateTest, RandomWalkServeObjective) {
  RunRandomWalk(/*include_sync=*/false, 3);
}

/// The planner's access pattern, which is what the contribution memo
/// serves: shrink a cold expert, try an expand of a hot one, undo both;
/// re-apply ops just undone; reach the same expand from different shrinks.
/// Every step is checked against the from-scratch oracle, and the walk
/// must actually have hit the memo.
void RunMemoWalk(bool include_sync, uint64_t seed) {
  SCOPED_TRACE(testing::Message()
               << "include_sync=" << include_sync << " seed=" << seed);
  TestEnv env = TestEnv::MakeGrid(2, 4);
  ModelConfig model = GptMoES();
  model.num_experts = 12;
  const CostModel cost(&env.profile, ShapeFromModel(model));

  Rng rng(seed);
  const Assignment a = RandomAssignment(rng, model.num_experts, 8);
  Placement start = MakePlacement(model.num_experts, 8, /*slots=*/3);
  for (int i = 0; i < 16; ++i) {
    const Status ignored = ApplyOp(RandomOp(rng, start), &start);
    (void)ignored;
  }
  LayerCostState state(&cost, include_sync);
  state.Reset(a, start);

  std::vector<Placement> mirror{start};
  const auto apply = [&](const ModOp& op) {
    Placement trial = mirror.back();
    const bool feasible = ApplyOp(op, &trial).ok();
    EXPECT_EQ(state.Apply(op), feasible) << op.ToString();
    if (!feasible) return false;
    mirror.push_back(std::move(trial));
    ExpectMatchesScratch(cost, a, mirror.back(), include_sync, state);
    return true;
  };
  const auto undo = [&]() {
    state.Undo();
    mirror.pop_back();
    ExpectMatchesScratch(cost, a, mirror.back(), include_sync, state);
  };

  const int64_t hits_before = state.memo_hits();
  int expands = 0;
  for (int it = 0; it < 300; ++it) {
    const int hot = static_cast<int>(rng.UniformInt(model.num_experts));
    const GpuId gpu = static_cast<GpuId>(rng.UniformInt(8));
    // The same expand (hot onto `gpu`) reached from two different shrinks
    // that each free a slot on `gpu`.
    int shrinks = 0;
    for (const int cold : mirror.back().ExpertsOn(gpu)) {
      if (cold == hot || shrinks == 2) continue;
      if (!apply(MakeShrink(cold, gpu))) continue;
      ++shrinks;
      if (apply(MakeExpand(hot, /*copy_from=*/-1, gpu))) {
        ++expands;
        // Undo, then re-apply the op just undone: a guaranteed memo hit.
        undo();
        ASSERT_TRUE(apply(MakeExpand(hot, /*copy_from=*/-1, gpu)));
        undo();
      }
      undo();
    }
    // Occasionally commit an op, so later candidates start from a
    // placement the Reset never saw.
    if (rng.UniformInt(8) == 0 && state.depth() < 6) {
      apply(RandomOp(rng, mirror.back()));
    }
  }
  EXPECT_GT(expands, 50);
  EXPECT_GT(state.memo_hits() - hits_before, expands);
  while (state.depth() > 0) undo();
  ExpectMatchesScratch(cost, a, start, include_sync, state);
}

TEST(LayerCostStateTest, MemoHitsMatchScratch) {
  RunMemoWalk(/*include_sync=*/true, 21);
  RunMemoWalk(/*include_sync=*/false, 22);
}

// Reset onto a new assignment with the SAME placement: every memoized
// contribution belongs to the old assignment, so the memo must not carry
// over — the same ops must now agree with the new assignment's oracle.
TEST(LayerCostStateTest, ResetOntoNewAssignmentDropsMemo) {
  TestEnv env = TestEnv::MakeGrid(2, 4);
  ModelConfig model = GptMoES();
  model.num_experts = 12;
  const CostModel cost(&env.profile, ShapeFromModel(model));
  Rng rng(31);
  const Assignment a1 = RandomAssignment(rng, model.num_experts, 8);
  const Assignment a2 = RandomAssignment(rng, model.num_experts, 8);
  const Placement p = MakePlacement(model.num_experts, 8, /*slots=*/3);

  // Feasible single ops on p, found once and replayed against both
  // assignments.
  std::vector<ModOp> ops;
  while (ops.size() < 40) {
    const ModOp op = RandomOp(rng, p);
    Placement trial = p;
    if (ApplyOp(op, &trial).ok()) ops.push_back(op);
  }
  LayerCostState state(&cost, /*include_sync=*/true);
  for (const Assignment* a : {&a1, &a2, &a1}) {
    state.Reset(*a, p);
    for (int pass = 0; pass < 2; ++pass) {  // the second pass hits the memo
      for (const ModOp& op : ops) {
        ASSERT_TRUE(state.Apply(op)) << op.ToString();
        Placement after = p;
        ASSERT_TRUE(ApplyOp(op, &after).ok());
        ExpectMatchesScratch(cost, *a, after, /*include_sync=*/true, state);
        state.Undo();
      }
    }
    ExpectMatchesScratch(cost, *a, p, /*include_sync=*/true, state);
  }
}

// Route + BuildCosts is Reset split in two: the routed matrices are valid
// after the walk alone, and building the costs afterwards gives the
// from-scratch state.
TEST(LayerCostStateTest, RouteThenBuildCostsEqualsReset) {
  TestEnv env = TestEnv::MakeGrid(2, 4);
  ModelConfig model = GptMoES();
  model.num_experts = 12;
  const CostModel cost(&env.profile, ShapeFromModel(model));
  Rng rng(41);
  const Assignment a = RandomAssignment(rng, model.num_experts, 8);
  const Placement p = MakePlacement(model.num_experts, 8, /*slots=*/3);
  const RoutedAssignment want = FlexibleRouter::Route(a, p);

  LayerCostState state(&cost, /*include_sync=*/true);
  state.Route(a, p);
  EXPECT_FALSE(state.initialized());
  for (int e = 0; e < a.num_experts(); ++e) {
    for (GpuId g = 0; g < 8; ++g) {
      ASSERT_EQ(state.routed().expert_gpu_tokens(e, g),
                want.expert_gpu_tokens(e, g));
    }
  }
  for (GpuId dst = 0; dst < 8; ++dst) {
    for (GpuId src = 0; src < 8; ++src) {
      ASSERT_EQ(state.routed().dispatch(src, dst), want.dispatch(src, dst));
    }
  }
  state.BuildCosts();
  ExpectMatchesScratch(cost, a, p, /*include_sync=*/true, state);
}

// The pruning bound never exceeds the score of the candidate it bounds.
TEST(LayerCostStateTest, ExpandScoreLowerBoundNeverExceedsScore) {
  TestEnv env = TestEnv::MakeGrid(2, 4);
  ModelConfig model = GptMoES();
  model.num_experts = 12;
  const CostModel cost(&env.profile, ShapeFromModel(model));
  Rng rng(51);
  const Assignment a = RandomAssignment(rng, model.num_experts, 8);
  const Placement p = MakePlacement(model.num_experts, 8, /*slots=*/4);
  LayerCostState state(&cost, /*include_sync=*/true);
  state.Reset(a, p);
  // The planner's shape: a shrink frees a slot, then every expand that
  // fits is a candidate.
  int checked = 0;
  for (int cold = 0; cold < model.num_experts; ++cold) {
    for (GpuId src = 0; src < 8; ++src) {
      if (!state.Apply(MakeShrink(cold, src))) continue;
      for (int hot = 0; hot < model.num_experts; ++hot) {
        for (GpuId dst = 0; dst < 8; ++dst) {
          const ModOp op = MakeExpand(hot, /*copy_from=*/-1, dst);
          if (!state.CanApply(op)) continue;
          const double bound = state.ExpandScoreLowerBound(hot, dst);
          ASSERT_TRUE(state.Apply(op));
          EXPECT_LE(bound, state.Score()) << op.ToString();
          state.Undo();
          ++checked;
        }
      }
      state.Undo();
    }
  }
  EXPECT_GT(checked, 0);
}

// Steady-state Apply/Undo never touches the heap: once a first pass has
// grown the pools (contribution cache, memo table, undo stacks, replica
// lists), a Reset keeps their capacity and the same search allocates
// nothing — memo misses included.
TEST(LayerCostStateTest, SteadyStateApplyUndoIsAllocationFree) {
  TestEnv env = TestEnv::MakeGrid(2, 4);
  ModelConfig model = GptMoES();
  model.num_experts = 12;
  const CostModel cost(&env.profile, ShapeFromModel(model));
  Rng rng(61);
  const Assignment a = RandomAssignment(rng, model.num_experts, 8);
  const Placement p = MakePlacement(model.num_experts, 8, /*slots=*/3);
  std::vector<ModOp> ops;
  for (int i = 0; i < 400; ++i) ops.push_back(RandomOp(rng, p));

  LayerCostState state(&cost, /*include_sync=*/true);
  const auto search = [&]() {
    for (size_t i = 0; i + 1 < ops.size(); i += 2) {
      if (!state.Apply(ops[i])) continue;
      if (state.Apply(ops[i + 1])) state.Undo();
      state.Undo();
    }
  };
  // The first pass grows the pools — and proves the counter counts.
  const int64_t warmup_before = AllocationCount();
  state.Reset(a, p);
  search();
  EXPECT_GT(AllocationCount() - warmup_before, 0);
  state.Reset(a, p);
  const int64_t misses_before = state.memo_misses();
  const int64_t allocs_before = AllocationCount();
  search();
  EXPECT_EQ(AllocationCount() - allocs_before, 0);
  EXPECT_GT(state.memo_misses() - misses_before, 0);
}

// The memoized serving floor must be a pure cache: bitwise-identical
// values to the direct call, hit or miss, including collision eviction.
TEST(ForwardFloorEstimatorTest, BitwiseIdenticalToDirectCall) {
  const TestEnv env = TestEnv::Make(8);
  const ModelConfig model = GptMoES();
  const ForwardFloorEstimator floor(&env.profile, model, 8);
  Rng rng(13);
  for (int i = 0; i < 4096; ++i) {
    const int64_t tokens = static_cast<int64_t>(rng.UniformInt(1 << 20));
    ASSERT_EQ(floor.Seconds(tokens),
              EstimateForwardMicrobatchSeconds(env.profile, model, 8, tokens))
        << "tokens=" << tokens;
  }
  // Repeated probes (cache hits) must return the same value.
  ASSERT_EQ(floor.Seconds(777),
            EstimateForwardMicrobatchSeconds(env.profile, model, 8, 777));
  ASSERT_EQ(floor.Seconds(777),
            EstimateForwardMicrobatchSeconds(env.profile, model, 8, 777));
}

}  // namespace
}  // namespace flexmoe
