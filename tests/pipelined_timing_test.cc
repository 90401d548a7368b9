// Chunked A2A/compute overlap (DESIGN.md Section 11) and the accounting
// fixes that rode along with it:
//
//  1. on a replica-free probe chunks == 1 is BYTE-IDENTICAL to the
//     pre-pipelining executor — the StepTiming doubles below were
//     captured from the unmodified serial code and are compared with ==,
//     not near; K = 2 and K = 4, and the expert-sync launch point (after
//     the last grad combine) at K = 1 and K = 4, are pinned the same way;
//  2. chunks > 1 never makes a step slower, and a dispatch-heavy forward
//     pass gets strictly faster, at G = 8 and at G = 512;
//  3. the pipelined wall time respects the phase bounds (max-of-phases
//     <= pipelined <= serial sum), in the executor and in the cost
//     model's CombineGpuSeconds / EstimateForwardMicrobatchSeconds
//     mirrors;
//  4. a straggler's bandwidth multiplier stretches exactly its own NIC
//     ports, exactly once (hand-computed engine-level finishes — the
//     double-stretch regression: payload inflation times group-max ring
//     scaling used to charge the slowdown twice);
//  5. ForwardFloorEstimator invalidates its memo when the GPU count
//     changes (the stale-floor-after-failover regression);
//  6. LayerCostState's max_cross_link_into matches a brute-force
//     per-node recount along an Apply/Undo walk;
//  7. auto-K (pipeline_chunks = 0) matches the best static depth end to
//     end through RunExperiment.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <vector>

#include "core/incremental_cost.h"
#include "core/step_executor.h"
#include "harness/experiment.h"
#include "test_env.h"
#include "util/rng.h"

namespace flexmoe {
namespace {

// ---- Shared fixtures ------------------------------------------------------

ModelConfig ProbeModel() {
  ModelConfig model = GptMoES();
  model.num_experts = 8;
  model.num_moe_layers = 2;
  return model;
}

Placement ExpertParallel8() {
  PlacementOptions po;
  po.num_experts = 8;
  po.num_gpus = 8;
  po.slots_per_gpu = 1;
  return *Placement::ExpertParallel(po);
}

/// Dispatch-heavy routing: every GPU routes all its tokens to expert
/// (g+1) % E, which lives on a different GPU under expert parallelism, so
/// every token crosses the wire twice.
Assignment SkewedAssignment(int experts, int gpus, int64_t per_cell) {
  Assignment a(experts, gpus);
  for (int g = 0; g < gpus; ++g) {
    a.set((g + 1) % experts, g, per_cell);
  }
  return a;
}

struct ForwardRun {
  StepTiming fwd;
  StepTiming step;
};

/// One forward pass followed by one training step on a fresh cluster —
/// the exact call sequence the committed fingerprints were captured from.
ForwardRun RunProbe(const TestEnv& env, int chunks) {
  ClusterState cluster(env.topo.get());
  const ModelConfig model = ProbeModel();
  StepExecutor exec(&cluster, &env.profile, model);
  PipelineOptions pipeline;
  pipeline.chunks = chunks;
  exec.set_pipeline(pipeline);

  const Placement p = ExpertParallel8();
  const Assignment a = SkewedAssignment(8, 8, 4096);
  const RoutedAssignment r = FlexibleRouter::Route(a, p);
  LayerWork work;
  work.routed = &r;
  work.placement = &p;

  ForwardRun out;
  out.fwd = exec.ExecuteForward({work, work});
  out.step = exec.ExecuteStep({work, work}, nullptr);
  return out;
}

/// One forward pass of `a` on a fresh cluster of `env`'s G GPUs under
/// expert parallelism (ProbeModel widened to one expert per GPU) at chunk
/// depth `chunks`.
double ExpertParallelForwardSeconds(const TestEnv& env, const Assignment& a,
                                    int chunks) {
  const int g = env.topo->num_gpus();
  const Placement p = *Placement::ExpertParallel({g, g, /*slots=*/1});
  ModelConfig model = ProbeModel();
  model.num_experts = g;
  ClusterState cluster(env.topo.get());
  StepExecutor exec(&cluster, &env.profile, model);
  PipelineOptions pipeline;
  pipeline.chunks = chunks;
  exec.set_pipeline(pipeline);
  const RoutedAssignment r = FlexibleRouter::Route(a, p);
  LayerWork work;
  work.routed = &r;
  work.placement = &p;
  return exec.ExecuteForward({work, work}).StepSeconds();
}

double PerGpuComputeSum(const StepTiming& t) {
  double sum = 0.0;
  for (double v : t.per_gpu_expert_compute) sum += v;
  return sum;
}

// ---- 1. chunks == 1 byte-identity ----------------------------------------

// The expected doubles were printed (%.17g) by the UNMODIFIED executor
// before the pipelining change landed. chunks == 1 must reproduce every
// one of them bitwise — on the flat 8-GPU topology and on a 2x4 grid
// (cross-node links exercise the hierarchical byte paths).
TEST(PipelinedTimingTest, SerialPathMatchesPrePipeliningFingerprintsFlat8) {
  const TestEnv env = TestEnv::Make(8);
  const ForwardRun run = RunProbe(env, /*chunks=*/1);

  EXPECT_EQ(run.fwd.start, 0.0);
  EXPECT_EQ(run.fwd.end, 0.0096887054966153831);
  EXPECT_EQ(run.fwd.a2a_seconds, 0.00010788608);
  EXPECT_EQ(run.fwd.compute_seconds, 0.00056663683282051278);
  EXPECT_EQ(run.fwd.sync_seconds, 0.0);
  EXPECT_EQ(run.fwd.sync_busy_seconds, 0.0);
  EXPECT_EQ(run.fwd.dp_sync_seconds, 0.0);
  EXPECT_EQ(run.fwd.non_moe_seconds, 0.0090141825837948709);
  EXPECT_EQ(PerGpuComputeSum(run.fwd), 0.0045330946625641022);

  EXPECT_EQ(run.step.start, 0.0096887054966153831);
  EXPECT_EQ(run.step.end, 0.039553739746461571);
  EXPECT_EQ(run.step.a2a_seconds, 0.00021577216000003008);
  EXPECT_EQ(run.step.compute_seconds, 0.0016839104984615431);
  EXPECT_EQ(run.step.dp_sync_seconds, 0.00092280383999999993);
  EXPECT_EQ(run.step.non_moe_seconds, 0.027042547751384614);
  EXPECT_EQ(PerGpuComputeSum(run.step), 0.013471283987692345);
}

TEST(PipelinedTimingTest, SerialPathMatchesPrePipeliningFingerprintsGrid2x4) {
  const TestEnv env = TestEnv::MakeGrid(2, 4);
  const ForwardRun run = RunProbe(env, /*chunks=*/1);

  EXPECT_EQ(run.fwd.start, 0.0);
  EXPECT_EQ(run.fwd.end, 0.010667452376615384);
  EXPECT_EQ(run.fwd.a2a_seconds, 0.0010866329600000002);
  EXPECT_EQ(run.fwd.compute_seconds, 0.00056663683282051278);
  EXPECT_EQ(run.fwd.non_moe_seconds, 0.0090141825837948709);
  EXPECT_EQ(PerGpuComputeSum(run.fwd), 0.0045330946625641022);

  EXPECT_EQ(run.step.start, 0.010667452376615384);
  EXPECT_EQ(run.step.end, 0.052276822626461571);
  EXPECT_EQ(run.step.a2a_seconds, 0.002173265920000023);
  EXPECT_EQ(run.step.compute_seconds, 0.0016839104984615431);
  EXPECT_EQ(run.step.dp_sync_seconds, 0.010709646080000003);
  EXPECT_EQ(run.step.non_moe_seconds, 0.027042547751384618);
  EXPECT_EQ(PerGpuComputeSum(run.step), 0.013471283987692345);
}

// ---- 1b. chunked-leg and sync-launch fingerprints -------------------------

struct TimingPin {
  double start, end, a2a, compute, sync, sync_busy, dp_sync, non_moe;
  double busy_sum;
};

// Every timing field compares with ==. Busy time is each kernel's
// reservation interval (finish - start), which equals its duration only up
// to rounding at K > 1, so the per-GPU busy sum compares to 1e-12.
void ExpectPinned(const StepTiming& t, const TimingPin& pin) {
  EXPECT_EQ(t.start, pin.start);
  EXPECT_EQ(t.end, pin.end);
  EXPECT_EQ(t.a2a_seconds, pin.a2a);
  EXPECT_EQ(t.compute_seconds, pin.compute);
  EXPECT_EQ(t.sync_seconds, pin.sync);
  EXPECT_EQ(t.sync_busy_seconds, pin.sync_busy);
  EXPECT_EQ(t.dp_sync_seconds, pin.dp_sync);
  EXPECT_EQ(t.non_moe_seconds, pin.non_moe);
  EXPECT_NEAR(PerGpuComputeSum(t), pin.busy_sum, 1e-12 * pin.busy_sum);
}

// The chunked legs at K = 2 and K = 4, printed (%.17g) by the executor
// that still ran them as separate bodies beside the serial ones.
TEST(PipelinedTimingTest, ChunkedPathMatchesFingerprints) {
  struct Case {
    bool grid;
    int chunks;
    TimingPin fwd;
    TimingPin step;
  };
  const Case cases[] = {
      {false, 2,
       {0.0, 0.0096627624566153845, 8.6914560000000014e-05,
        0.0005616653128205128, 0.0, 0.0, 0.0, 0.0090141825837948709,
        0.0046610946625641027},
       {0.0096627624566153845, 0.039475910626461552, 0.0001738291200000068,
        0.0016739674584615484, 0.0, 0.0, 0.00092280383999999993,
        0.027042547751384614, 0.013727283987692308}},
      {false, 4,
       {0.0, 0.009673790936615384, 7.6428799999999887e-05,
        0.00058317955282051297, 0.0, 0.0, 0.0, 0.0090141825837948709,
        0.0049170946625641037},
       {0.009673790936615384, 0.039508996066461535, 0.00015285760000001772,
        0.0017169959384615192, 0.0, 0.0, 0.00092280383999999993,
        0.027042547751384614, 0.01423928398769231}},
      {true, 2,
       {0.0, 0.010180135896615384, 0.0008349747200000002,
        0.00033097859282051273, 0.0, 0.0, 0.0, 0.0090141825837948709,
        0.0046610946625641027},
       {0.010180135896615384, 0.050814873186461558, 0.0016699494400000056,
        0.0012125940184615491, 0.0, 0.0, 0.010709646080000003,
        0.027042547751384614, 0.013727283987692308}},
      {true, 4,
       {0.0, 0.0099604776566153842, 0.00070914560000000021,
        0.00023714947282051297, 0.0, 0.0, 0.0, 0.0090141825837948709,
        0.0049170946625641037},
       {0.0099604776566153842, 0.050155898466461547, 0.0014182912000000429,
        0.0010249357784615047, 0.0, 0.0, 0.010709646080000003,
        0.027042547751384614, 0.01423928398769231}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "grid=" << c.grid << " chunks=" << c.chunks);
    const TestEnv env = c.grid ? TestEnv::MakeGrid(2, 4) : TestEnv::Make(8);
    const ForwardRun run = RunProbe(env, c.chunks);
    ExpectPinned(run.fwd, c.fwd);
    ExpectPinned(run.step, c.step);
  }
}

/// Experts 0-3 replicated on GPUs e and e+4, experts 4-7 single-homed:
/// four two-GPU replica syncs per layer.
Placement Replicated8() {
  PlacementOptions po;
  po.num_experts = 8;
  po.num_gpus = 8;
  po.slots_per_gpu = 2;
  std::vector<std::map<GpuId, int>> replicas(8);
  for (int e = 0; e < 8; ++e) {
    replicas[static_cast<size_t>(e)][e] = 1;
    if (e < 4) replicas[static_cast<size_t>(e)][e + 4] = 1;
  }
  return *Placement::FromReplicaMap(po, replicas);
}

// A layer's expert syncs share the NIC ports with its grad combines, so
// the point in the backward leg where they are posted decides which
// queues first. Every depth posts them after the last combine, the order
// the cost model's serial sync term charges; moving the launch point
// moves these doubles.
TEST(PipelinedTimingTest, ExpertSyncLaunchPointFingerprints) {
  struct Case {
    int chunks;
    double end, sync, sync_busy;
  };
  const Case cases[] = {
      {1, 0.030847355579076925, 3.4482879999998828e-05,
       0.00055152127999999467},
      {4, 0.030859611899076919, 3.4482879999998828e-05,
       0.00036580607999997516},
  };
  const TestEnv env = TestEnv::Make(8);
  const Placement p = Replicated8();
  const Assignment a = SkewedAssignment(8, 8, 4096);
  const RoutedAssignment r = FlexibleRouter::Route(a, p);
  LayerWork work;
  work.routed = &r;
  work.placement = &p;
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "chunks=" << c.chunks);
    ClusterState cluster(env.topo.get());
    StepExecutor exec(&cluster, &env.profile, ProbeModel());
    PipelineOptions pipeline;
    pipeline.chunks = c.chunks;
    exec.set_pipeline(pipeline);
    const StepTiming t = exec.ExecuteStep({work, work}, nullptr);
    EXPECT_EQ(t.end, c.end);
    EXPECT_EQ(t.sync_seconds, c.sync);
    EXPECT_EQ(t.sync_busy_seconds, c.sync_busy);
  }
}

// ---- 2./3. overlap speedup and phase bounds -------------------------------

// Chunking buys overlap but pays one extra kernel launch per chunk, so
// the wall time is NOT monotone in K forever: it can only beat the serial
// sum while the hidden wire time exceeds the added launch overhead. The
// testable law is two-sided — moderate depths win outright on this
// dispatch-heavy probe, and no depth loses more than its added launches
// (each GPU computes one cell per layer, so K chunks add exactly
// (K-1) launches per layer to its compute stream).
TEST(PipelinedTimingTest, ChunkedWallTimeBoundedByLaunchOverhead) {
  for (const bool grid : {false, true}) {
    const TestEnv env = grid ? TestEnv::MakeGrid(2, 4) : TestEnv::Make(8);
    const ForwardRun serial = RunProbe(env, 1);
    const double overhead = env.profile.gpu_spec().kernel_overhead_sec;
    for (const int chunks : {2, 4, 8}) {
      const ForwardRun run = RunProbe(env, chunks);
      const double slack =
          2.0 * static_cast<double>(chunks - 1) * overhead;
      EXPECT_LE(run.fwd.StepSeconds(),
                serial.fwd.StepSeconds() * (1.0 + 1e-9) + slack)
          << "grid=" << grid << " chunks=" << chunks;
      EXPECT_LE(run.step.StepSeconds(),
                serial.step.StepSeconds() * (1.0 + 1e-9) + slack)
          << "grid=" << grid << " chunks=" << chunks;
      if (chunks <= 4) {
        // Overhead amortizes at moderate depth: a strict win, both legs.
        EXPECT_LT(run.fwd.StepSeconds(), serial.fwd.StepSeconds())
            << "grid=" << grid << " chunks=" << chunks;
        EXPECT_LT(run.step.StepSeconds(), serial.step.StepSeconds())
            << "grid=" << grid << " chunks=" << chunks;
      }
    }
  }
}

// K = 4 makes a dispatch-heavy forward strictly faster than serial, from
// the 8-GPU probe up to G = 512 (1.07x there today).
TEST(PipelinedTimingTest, DispatchHeavyForwardStrictlyFasterChunked) {
  for (const int g : {8, 512}) {
    const TestEnv env = TestEnv::Make(g);
    const Assignment skewed = SkewedAssignment(g, g, 4096);
    const double serial = ExpertParallelForwardSeconds(env, skewed, 1);
    const double pipelined = ExpertParallelForwardSeconds(env, skewed, 4);
    EXPECT_LT(pipelined, serial) << "G = " << g;
  }
}

TEST(PipelinedTimingTest, ChunkedForwardRespectsPhaseBounds) {
  for (const bool grid : {false, true}) {
    const TestEnv env = grid ? TestEnv::MakeGrid(2, 4) : TestEnv::Make(8);
    const ForwardRun serial = RunProbe(env, 1);
    const ForwardRun chunked = RunProbe(env, 4);

    const double wall = chunked.fwd.StepSeconds();
    // Upper bound: the serial sum — overlap can only hide work.
    EXPECT_LE(wall, serial.fwd.StepSeconds() * (1.0 + 1e-9)) << "grid=" << grid;
    // Lower bound: the busiest compute stream still has to run all of its
    // expert work plus the non-MoE forward share serially.
    double max_compute = 0.0;
    for (double v : chunked.fwd.per_gpu_expert_compute) {
      max_compute = std::max(max_compute, v);
    }
    EXPECT_GE(wall * (1.0 + 1e-12),
              max_compute + chunked.fwd.non_moe_seconds)
        << "grid=" << grid;
    // per_gpu_expert_compute is busy time: the chunked run computes the
    // identical routed tokens plus exactly (K-1) extra kernel launches per
    // (expert, GPU) cell — 8 cells per layer, 2 layers here — and never
    // counts inter-chunk waits as occupancy.
    const double launches = 2.0 * 8.0 * 3.0;  // layers * cells * (K-1)
    const double expected = PerGpuComputeSum(serial.fwd) +
                            launches *
                                env.profile.gpu_spec().kernel_overhead_sec;
    EXPECT_NEAR(PerGpuComputeSum(chunked.fwd), expected, 1e-9 * expected)
        << "grid=" << grid;
  }
}

// ---- 3. cost-model mirror -------------------------------------------------

/// Distance in units in the last place between two finite non-negative
/// doubles (adjacent doubles are 1 apart).
int64_t UlpDistance(double x, double y) {
  int64_t bx = 0;
  int64_t by = 0;
  std::memcpy(&bx, &x, sizeof(bx));
  std::memcpy(&by, &y, sizeof(by));
  return bx > by ? bx - by : by - bx;
}

// One combiner formula serves every depth, and it is deliberately NOT
// monotone in K: each extra chunk hides more wire time but pays one more
// kernel launch per leg, exactly like the executor it mirrors. The laws:
//  * K = 1 is the additive sum c + a + s up to rounding (each leg is its
//    compute share plus two crossings; the shares are summed per leg, so
//    the result is within a few ulps, not bitwise);
//  * chunked <= serial + 2(K-1)*overhead (overlap can only hide work;
//    the launches are the only new cost);
//  * chunked >= the un-overlappable work: each leg still runs its compute
//    serially plus one chunk-sized crossing, and both boundary crossings
//    of a leg bound it from below;
//  * with nothing to hide (a == 0) the overhead is charged exactly:
//    chunked == serial + 2(K-1)*overhead — the term the old model
//    omitted, which made it prefer K=8 always.
TEST(CombineGpuSecondsTest, KOneIsTheSumAndDeeperIsOverheadHonest) {
  const TestEnv env = TestEnv::Make(8);
  CostModel cost(&env.profile, ShapeFromModel(GptMoES()));
  const double fwd_fraction = cost.shape().fwd_fraction;
  ASSERT_GT(fwd_fraction, 0.0);
  ASSERT_LT(fwd_fraction, 1.0);
  const double ovh = env.profile.kernel_overhead_sec();
  ASSERT_GT(ovh, 0.0);

  // K = 1 over a seeded grid whose terms span four decades each, so
  // compute-, wire- and sync-dominated cells all appear.
  Rng rng(29);
  const auto term = [&rng] {
    return rng.Uniform() * std::pow(10.0, -3.0 - rng.Uniform(0.0, 4.0));
  };
  for (int i = 0; i < 2000; ++i) {
    const double c = term();
    const double a = term();
    const double s = term();
    EXPECT_LE(UlpDistance(cost.CombineGpuSeconds(c, a, s, 1), c + a + s), 4)
        << "c=" << c << " a=" << a << " s=" << s;
  }

  for (const double c : {0.0, 3e-4}) {
    for (const double a : {0.0, 1.2e-4}) {
      for (const double s : {0.0, 5e-5}) {
        const double serial = c + a + s;
        EXPECT_LE(UlpDistance(cost.CombineGpuSeconds(c, a, s, 1), serial), 4)
            << "c=" << c << " a=" << a << " s=" << s;

        for (const int chunks : {2, 4, 8}) {
          const double K = static_cast<double>(chunks);
          const double launches = 2.0 * (K - 1.0) * ovh;
          const double v = cost.CombineGpuSeconds(c, a, s, chunks);
          EXPECT_LE(v, (serial + launches) * (1.0 + 1e-12) + 1e-300)
              << "c=" << c << " a=" << a << " s=" << s
              << " chunks=" << chunks;
          // Un-overlappable floor: compute (with its launches) is serial
          // within each leg plus one chunk-sized crossing, and the leg's
          // two boundary crossings plus one compute lap survive any
          // depth. The launches ride the overlap, so only the first arm
          // charges them in full.
          const double lower =
              std::max(c + launches + 0.5 * a / K,
                       0.5 * a + (c + launches + 0.5 * a) / K) +
              s;
          EXPECT_GE(v * (1.0 + 1e-12) + 1e-300, lower)
              << "c=" << c << " a=" << a << " s=" << s
              << " chunks=" << chunks;
          if (a == 0.0) {
            // No wire time to hide: the launches are pure loss, charged
            // exactly (up to summation order — the legs accumulate
            // per-leg). This is the non-monotone shape the executor
            // measures and the old model hid.
            EXPECT_DOUBLE_EQ(v, serial + launches)
                << "c=" << c << " s=" << s << " chunks=" << chunks;
            EXPECT_GT(v, serial);
          }
        }
        // Dispatch-heavy cell: moderate depth strictly beats serial even
        // after paying its launches (the overlap win the model must keep
        // seeing), so the corrected model is genuinely non-monotone.
        if (c > 0.0 && a > 0.0) {
          EXPECT_LT(cost.CombineGpuSeconds(c, a, s, 2), serial);
        }
      }
    }
  }
}

namespace {

// Worst-over-GPUs combined seconds at each candidate depth — the exact
// quantity BestChunkDepth's ladder walks (Eq. 5 outer max).
std::vector<double> WorstPerDepth(const CostModel& cost,
                                  const std::vector<double>& compute,
                                  const std::vector<double>& a2a,
                                  const std::vector<double>& sync) {
  std::vector<double> worst;
  for (const int k : CostModel::kChunkDepthCandidates) {
    double w = 0.0;
    for (size_t g = 0; g < compute.size(); ++g) {
      w = std::max(w, cost.CombineGpuSeconds(compute[g], a2a[g], sync[g], k));
    }
    worst.push_back(w);
  }
  return worst;
}

}  // namespace

// BestChunkDepth walks the candidate ladder shallow-to-deep, adopting a
// deeper depth only when it beats the current pick by more than the
// deepening margin (DESIGN.md §12.2). On workloads where every deepening
// step clears the margin that IS the raw argmin of the worst per-GPU
// combined time; the margin only shows where neighboring depths sit
// within the model's fidelity band.
TEST(CombineGpuSecondsTest, BestChunkDepthWalksTheDeepeningLadder) {
  const TestEnv env = TestEnv::Make(8);
  CostModel cost(&env.profile, ShapeFromModel(GptMoES()));

  // Wire-free workload: overhead makes every K > 1 a strict loss.
  {
    const std::vector<double> compute = {3e-4, 2e-4};
    const std::vector<double> a2a = {0.0, 0.0};
    const std::vector<double> sync = {0.0, 0.0};
    EXPECT_EQ(cost.BestChunkDepth(compute, a2a, sync), 1);
  }
  // Dispatch-heavy workload: hiding the wire beats the launches, and every
  // deepening step clears the margin, so the ladder lands on the argmin.
  {
    const std::vector<double> compute = {3e-4, 3e-4};
    const std::vector<double> a2a = {6e-4, 5e-4};
    const std::vector<double> sync = {0.0, 0.0};
    const int best = cost.BestChunkDepth(compute, a2a, sync);
    EXPECT_GT(best, 1);
    const std::vector<double> worst =
        WorstPerDepth(cost, compute, a2a, sync);
    double best_worst = std::numeric_limits<double>::infinity();
    int expected = 1;
    for (size_t i = 0; i < worst.size(); ++i) {
      if (worst[i] < best_worst) {
        best_worst = worst[i];
        expected = CostModel::kChunkDepthCandidates[i];
      }
    }
    EXPECT_EQ(best, expected);
  }
  // Transition-zone workload: the raw argmin is K = 8, but its edge over
  // K = 4 sits inside the deepening margin — below the model's fidelity
  // for launch/latency effects — so the ladder correctly stops at 4.
  // Doubling depth must earn its keep; a sub-margin modeled gain is not
  // evidence the deeper depth actually wins.
  {
    const std::vector<double> compute(8, 4e-4);
    const std::vector<double> a2a(8, 6e-4);
    const std::vector<double> sync(8, 0.0);
    const std::vector<double> worst =
        WorstPerDepth(cost, compute, a2a, sync);
    // Self-validate the construction: K8 strictly best, but within the
    // margin of K4; K4 beats K2 by well more than the margin.
    ASSERT_LT(worst[3], worst[2]);
    ASSERT_GT(worst[3],
              worst[2] * (1.0 - CostModel::kChunkDepthDeepeningMargin));
    ASSERT_LT(worst[2],
              worst[1] * (1.0 - CostModel::kChunkDepthDeepeningMargin));
    EXPECT_EQ(cost.BestChunkDepth(compute, a2a, sync), 4);
  }
}

// The retention hysteresis (DESIGN.md §12.2): an incumbent depth within
// the switch margin of the best candidate is kept even when it is not the
// ladder's fresh pick; an incumbent beaten by more than the margin is
// dropped and the fresh ladder pick takes over.
TEST(CombineGpuSecondsTest, BestChunkDepthRetainsInMarginIncumbent) {
  const TestEnv env = TestEnv::Make(8);
  CostModel cost(&env.profile, ShapeFromModel(GptMoES()));

  // The transition-zone workload above: fresh pick is 4, raw argmin 8.
  const std::vector<double> compute(8, 4e-4);
  const std::vector<double> a2a(8, 6e-4);
  const std::vector<double> sync(8, 0.0);
  const std::vector<double> worst = WorstPerDepth(cost, compute, a2a, sync);

  // No incumbent: the ladder's pick.
  EXPECT_EQ(cost.BestChunkDepth(compute, a2a, sync), 4);
  // An incumbent at the fresh pick is trivially kept.
  EXPECT_EQ(cost.BestChunkDepth(compute, a2a, sync, 4), 4);
  // K = 8 is within the switch margin of the best candidate (it IS the
  // best here), so a layer already running at 8 stays there — switching
  // to the ladder pick would churn the executed depth for a sub-margin
  // modeled delta.
  ASSERT_LE(worst[3], worst[2]);
  EXPECT_EQ(cost.BestChunkDepth(compute, a2a, sync, 8), 8);
  // K = 1 is beaten by far more than the switch margin: dropped, and the
  // fresh ladder pick takes over.
  ASSERT_GT(worst[0],
            worst[3] * (1.0 + CostModel::kChunkDepthSwitchMargin));
  EXPECT_EQ(cost.BestChunkDepth(compute, a2a, sync, 1), 4);
  // So is K = 2 on this workload.
  ASSERT_GT(worst[1],
            worst[3] * (1.0 + CostModel::kChunkDepthSwitchMargin));
  EXPECT_EQ(cost.BestChunkDepth(compute, a2a, sync, 2), 4);
}

TEST(ForwardMicrobatchFloorTest, ChunkedFloorBoundedAndDefaultBitwise) {
  const TestEnv env = TestEnv::Make(8);
  const ModelConfig model = GptMoES();
  const int64_t tokens = 32768;
  const double ovh = env.profile.kernel_overhead_sec();
  const double layers = static_cast<double>(model.num_moe_layers);

  const double serial =
      EstimateForwardMicrobatchSeconds(env.profile, model, 8, tokens);
  // The default depth is K = 1.
  EXPECT_EQ(
      EstimateForwardMicrobatchSeconds(env.profile, model, 8, tokens, 1),
      serial);

  // The chunked floor is overhead-honest, so it is NOT monotone in K: a
  // depth may cost more than its shallower neighbor once the launches
  // outweigh the hidden wire time. The bound that replaces monotonicity:
  // depth K can never exceed the serial floor by more than its launches
  // (one leg here — the floor models forward only).
  double best = serial;
  for (const int chunks : {2, 4, 8}) {
    const double v =
        EstimateForwardMicrobatchSeconds(env.profile, model, 8, tokens,
                                         chunks);
    EXPECT_GT(v, 0.0);
    const double launches =
        layers * static_cast<double>(chunks - 1) * ovh;
    EXPECT_LE(v, (serial + launches) * (1.0 + 1e-12)) << "chunks=" << chunks;
    best = std::min(best, v);
  }

  // chunks == 0 is auto-K: exactly the min over the candidate depths —
  // the floor of ANY per-layer depth the executor may choose.
  const double auto_floor =
      EstimateForwardMicrobatchSeconds(env.profile, model, 8, tokens, 0);
  EXPECT_EQ(auto_floor, best);
  EXPECT_LE(auto_floor, serial);
}

// The floor stays below the measured executor time at every chunk depth —
// the property deadline-aware shedding is only sound under. The auto-K
// floor (chunks == 0, the min over candidates) must floor every depth the
// executor might pick, so it is checked against each measured run too.
TEST(ForwardMicrobatchFloorTest, FloorBelowMeasuredForwardAtEveryDepth) {
  const ModelConfig model = ProbeModel();
  const int64_t tokens = SkewedAssignment(8, 8, 4096).Total() / model.top_k;
  for (const bool grid : {false, true}) {
    const TestEnv env = grid ? TestEnv::MakeGrid(2, 4) : TestEnv::Make(8);
    const double auto_floor = EstimateForwardMicrobatchSeconds(
        env.profile, model, 8, tokens, 0);
    for (const int chunks : {1, 2, 4, 8}) {
      const double measured = RunProbe(env, chunks).fwd.StepSeconds();
      const double floor = EstimateForwardMicrobatchSeconds(
          env.profile, model, 8, tokens, chunks);
      EXPECT_LE(floor, measured) << "grid=" << grid << " chunks=" << chunks;
      EXPECT_LE(auto_floor, measured)
          << "grid=" << grid << " chunks=" << chunks;
    }
  }
}

// Regression for the balanced-route latency artifact (DESIGN.md §11.3):
// on an exactly balanced route the engine's shifted schedule opens the
// bottleneck ingress at the self-pair round (loopback latency), so a
// balanced crossing pays total serialization plus ~one remote latency.
// A floor that charges two latencies per crossing sits above the measured
// time — at K = 1 too, where the old serial floor did (0.00968064 vs
// 0.00967822 s measured on flat-8) — so every depth charges one.
TEST(ForwardMicrobatchFloorTest, FloorSoundOnExactlyBalancedRoute) {
  // The 8-GPU probe on one node and on a 2x4 grid, and the G = 512
  // large-EP shape (measured/floor 1.024 there at K = 4 today).
  std::vector<TestEnv> envs;
  envs.push_back(TestEnv::Make(8));
  envs.push_back(TestEnv::MakeGrid(2, 4));
  envs.push_back(TestEnv::Make(512));
  for (const TestEnv& env : envs) {
    const int g = env.topo->num_gpus();
    ModelConfig model = ProbeModel();
    model.num_experts = g;
    // Every GPU sends the same count to every expert: all cells equal, so
    // per-GPU receive totals are identical — the exactly balanced route.
    Assignment balanced(g, g);
    for (int e = 0; e < g; ++e) {
      for (int src = 0; src < g; ++src) balanced.set(e, src, 4096 / g);
    }
    const int64_t tokens = balanced.Total() / model.top_k;
    for (const int chunks : {1, 2, 4, 8}) {
      const double measured =
          ExpertParallelForwardSeconds(env, balanced, chunks);
      const double floor = EstimateForwardMicrobatchSeconds(
          env.profile, model, g, tokens, chunks);
      EXPECT_LE(floor, measured) << "G=" << g << " nodes="
                                 << env.topo->num_nodes()
                                 << " chunks=" << chunks;
    }
  }
}

// ---- 5. memo invalidation on membership change ----------------------------

TEST(ForwardFloorEstimatorTest, InvalidatesMemoWhenGpuCountChanges) {
  const TestEnv env = TestEnv::Make(8);
  const ModelConfig model = GptMoES();
  for (const int chunks : {1, 4}) {
    ForwardFloorEstimator floor(&env.profile, model, 8, chunks);
    const int64_t tokens = 8192;
    const double at8 =
        EstimateForwardMicrobatchSeconds(env.profile, model, 8, tokens,
                                         chunks);
    const double at6 =
        EstimateForwardMicrobatchSeconds(env.profile, model, 6, tokens,
                                         chunks);
    ASSERT_NE(at8, at6);

    // Populate the cache at 8 GPUs, then shrink the membership: the same
    // token count must now return the 6-GPU floor, not the memoized 8-GPU
    // one (the regression: a stale floor under-estimates per-GPU load and
    // lets shedding admit unreachable requests after a failover).
    EXPECT_EQ(floor.Seconds(tokens), at8);
    floor.set_num_gpus(6);
    EXPECT_EQ(floor.num_gpus(), 6);
    EXPECT_EQ(floor.Seconds(tokens), at6);
    EXPECT_EQ(floor.Seconds(tokens), at6);  // and the refill memoizes again
    // Growing back re-invalidates symmetrically (recovery path).
    floor.set_num_gpus(8);
    EXPECT_EQ(floor.Seconds(tokens), at8);
    // A no-op retarget keeps the cache (same count, nothing stale).
    floor.set_num_gpus(8);
    EXPECT_EQ(floor.Seconds(tokens), at8);
  }
}

// The memo must key on the chunk depth as well as the membership: under
// auto-K the planner retargets the depth at runtime, and a floor memoized
// at the old depth would mis-price every admission probe after the switch
// (the same stale-floor failure mode as the GPU-count regression above).
TEST(ForwardFloorEstimatorTest, InvalidatesMemoWhenChunkDepthChanges) {
  const TestEnv env = TestEnv::Make(8);
  const ModelConfig model = GptMoES();
  const int64_t tokens = 8192;
  const double at1 =
      EstimateForwardMicrobatchSeconds(env.profile, model, 8, tokens, 1);
  const double at4 =
      EstimateForwardMicrobatchSeconds(env.profile, model, 8, tokens, 4);
  ASSERT_NE(at1, at4);

  ForwardFloorEstimator floor(&env.profile, model, 8, 1);
  EXPECT_EQ(floor.chunks(), 1);
  EXPECT_EQ(floor.Seconds(tokens), at1);
  floor.set_chunks(4);
  EXPECT_EQ(floor.chunks(), 4);
  EXPECT_EQ(floor.Seconds(tokens), at4);
  EXPECT_EQ(floor.Seconds(tokens), at4);  // refill memoizes again
  // Back to serial re-invalidates symmetrically; a no-op retarget keeps
  // the cache.
  floor.set_chunks(1);
  EXPECT_EQ(floor.Seconds(tokens), at1);
  floor.set_chunks(1);
  EXPECT_EQ(floor.Seconds(tokens), at1);
  // Auto mode (chunks == 0) is a distinct key too: the min over depths.
  floor.set_chunks(0);
  EXPECT_EQ(floor.Seconds(tokens),
            EstimateForwardMicrobatchSeconds(env.profile, model, 8, tokens,
                                             0));
}

// ---- 3b. auto-K differential ----------------------------------------------

// The point of charging the launch overhead: the corrected per-layer
// estimate reproduces the executor's non-monotone wall(K) shape on the
// dispatch-heavy flat-8 probe, and its argmin lands on the depth the
// executor actually measures fastest — so BestChunkDepth picks the right
// K from the model alone. The old model was monotone decreasing in K and
// would always answer 8.
TEST(AutoChunkDepthTest, EstimateArgminMatchesMeasuredBestDepth) {
  const TestEnv env = TestEnv::Make(8);
  const ModelConfig model = ProbeModel();
  const Placement p = ExpertParallel8();
  const Assignment a = SkewedAssignment(8, 8, 4096);
  const RoutedAssignment r = FlexibleRouter::Route(a, p);

  CostModel cost(&env.profile, ShapeFromModel(model));
  const LayerCostEstimate est = cost.EstimateLayer(r, p);

  int measured_best = 0;
  double measured_min = std::numeric_limits<double>::infinity();
  int est_best = 0;
  double est_min = std::numeric_limits<double>::infinity();
  double est_at_8 = 0.0;
  double measured_at_8 = 0.0;
  for (const int chunks : CostModel::kChunkDepthCandidates) {
    // Full training wall: forward + step on one cluster, end-to-end.
    const double measured = RunProbe(env, chunks).step.end;
    double worst = 0.0;
    for (size_t g = 0; g < est.per_gpu_compute.size(); ++g) {
      worst = std::max(
          worst, cost.CombineGpuSeconds(est.per_gpu_compute[g],
                                        est.per_gpu_a2a[g],
                                        est.per_gpu_sync[g], chunks));
    }
    if (measured < measured_min) {
      measured_min = measured;
      measured_best = chunks;
    }
    if (worst < est_min) {
      est_min = worst;
      est_best = chunks;
    }
    if (chunks == 8) {
      est_at_8 = worst;
      measured_at_8 = measured;
    }
  }

  // The executor's wall is non-monotone on this probe (deep chunking's
  // launches outweigh the already-hidden wire), and the corrected
  // estimate reproduces both the shape and the argmin.
  EXPECT_GT(measured_best, 1);
  EXPECT_LT(measured_best, 8);
  EXPECT_GT(measured_at_8, measured_min);
  EXPECT_GT(est_at_8, est_min);
  EXPECT_EQ(est_best, measured_best);
  // And BestChunkDepth's ladder lands on that argmin here — every
  // deepening step on this probe clears the margin, so the ladder and the
  // raw argmin agree (they diverge only inside the fidelity band, see
  // BestChunkDepthWalksTheDeepeningLadder).
  EXPECT_EQ(cost.BestChunkDepth(est.per_gpu_compute, est.per_gpu_a2a,
                                est.per_gpu_sync),
            est_best);
}

// End to end: one 16-GPU FlexMoE cell per static depth and one auto-K
// cell, all on the same seed. The planner picks its depth from the cost
// model alone and must match or beat every static pin on simulated mean
// step time (auto-K lands on K = 8, the best static depth, today).
TEST(AutoChunkDepthTest, AutoKMatchesBestStaticDepthEndToEnd) {
  const auto mean_step = [](int chunks) {
    ExperimentOptions o;
    o.num_gpus = 16;
    o.measure_steps = 40;
    o.warmup_steps = 10;
    o.pipeline_chunks = chunks;
    const Result<ExperimentReport> r = RunExperiment(o);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->mean_step_seconds
                  : std::numeric_limits<double>::infinity();
  };
  double best_static = std::numeric_limits<double>::infinity();
  for (const int k : CostModel::kChunkDepthCandidates) {
    best_static = std::min(best_static, mean_step(k));
  }
  EXPECT_LE(mean_step(0), best_static);
}

// ---- 4. straggler stretch applies exactly once ----------------------------

TEST(StragglerPortScaleTest, AllToAllStretchesOnlyTheSlowEndpointsPorts) {
  const TestEnv env = TestEnv::Make(8);
  ClusterState cluster(env.topo.get());
  ByteMatrix bytes;
  bytes.assign(8, 8, 0.0);
  const double payload = 4096.0 * 2048.0;
  bytes(0, 1) = payload;  // healthy src -> degraded dst
  bytes(2, 3) = payload;  // healthy pair, same message size
  std::vector<double> scale(8, 1.0);
  scale[1] = 2.0;

  const CollectiveResult r =
      ExecAllToAll(&cluster, env.profile, bytes, 0.0, &scale);

  // Hand-computed finishes replicating the engine's arithmetic exactly:
  // a message holds egress(src) for duration * scale[src] and ingress(dst)
  // for duration * scale[dst]; the stretch shows up once, on the slow side.
  const double d01 = payload / env.profile.BandwidthBytesPerSec(0, 1);
  const double l01 = env.profile.LatencySeconds(0, 1);
  const double end01 = std::max(0.0 + d01, (0.0 + l01) + d01 * 2.0) + l01;
  EXPECT_EQ(r.per_gpu_finish[0], end01);
  EXPECT_EQ(r.per_gpu_finish[1], end01);

  const double d23 = payload / env.profile.BandwidthBytesPerSec(2, 3);
  const double l23 = env.profile.LatencySeconds(2, 3);
  const double end23 = std::max(0.0 + d23, (0.0 + l23) + d23) + l23;
  EXPECT_EQ(r.per_gpu_finish[2], end23);
  EXPECT_EQ(r.per_gpu_finish[3], end23);

  // Port occupancy is the sharp assertion: the healthy sender's egress
  // drains at full speed even though its peer is degraded; only the
  // degraded GPU's ingress holds the 2x serialization time.
  EXPECT_EQ(cluster.egress(0).busy_until(), 0.0 + d01);
  EXPECT_EQ(cluster.ingress(1).busy_until(), (0.0 + l01) + d01 * 2.0);
  EXPECT_EQ(cluster.egress(2).busy_until(), 0.0 + d23);
  EXPECT_EQ(cluster.ingress(3).busy_until(), (0.0 + l23) + d23);
}

TEST(StragglerPortScaleTest, RingAllReduceStretchesOnlyTheSlowMember) {
  const TestEnv env = TestEnv::Make(8);
  ClusterState cluster(env.topo.get());
  const std::vector<GpuId> group = {0, 1, 2};
  const double bytes = 3.0e7;
  std::vector<double> scale(8, 1.0);
  scale[1] = 2.0;

  const CollectiveResult r =
      ExecRingAllReduce(&cluster, env.profile, bytes, group, 0.0, &scale);

  // Replicate the ring arithmetic hop by hop: 2(k-1) = 4 phases, chunk =
  // bytes/3, each member's ports busy for its hop's serialization time,
  // stretched by its own factor only; the collective still ends at the
  // slowest port plus the latency chain.
  const double chunk = bytes / 3.0;
  double slowest = 0.0;
  double max_lat = 0.0;
  const double hop_dur[3] = {
      4.0 * chunk / env.profile.BandwidthBytesPerSec(0, 1),
      4.0 * chunk / env.profile.BandwidthBytesPerSec(1, 2),
      4.0 * chunk / env.profile.BandwidthBytesPerSec(2, 0)};
  const GpuId src_of[3] = {0, 1, 2};
  const GpuId dst_of[3] = {1, 2, 0};
  for (int h = 0; h < 3; ++h) {
    const double ds = hop_dur[h] * scale[static_cast<size_t>(src_of[h])];
    const double dd = hop_dur[h] * scale[static_cast<size_t>(dst_of[h])];
    slowest = std::max(slowest, std::max(0.0 + ds, 0.0 + dd));
    max_lat = std::max(max_lat,
                       env.profile.LatencySeconds(src_of[h], dst_of[h]));
  }
  EXPECT_EQ(r.finish, slowest + 4.0 * max_lat);

  // The degraded member's own ports hold 2x; every healthy member's ports
  // are released on time (the ring waits for the straggler at the barrier,
  // it does not slow the healthy hops' wires).
  EXPECT_EQ(cluster.egress(1).busy_until(), 0.0 + hop_dur[1] * 2.0);
  EXPECT_EQ(cluster.ingress(1).busy_until(), 0.0 + hop_dur[0] * 2.0);
  EXPECT_EQ(cluster.egress(0).busy_until(), 0.0 + hop_dur[0]);
  EXPECT_EQ(cluster.ingress(0).busy_until(), 0.0 + hop_dur[2]);
  EXPECT_EQ(cluster.egress(2).busy_until(), 0.0 + hop_dur[2]);
  EXPECT_EQ(cluster.ingress(2).busy_until(), 0.0 + hop_dur[1]);
}

// Executor-level regression: one degraded endpoint, one routed message per
// direction, forward a2a time equals the single-stretch hand computation.
// The replaced code both inflated the payload by the endpoint max AND
// scaled the collective by the group max — charging the slowdown twice.
TEST(StragglerPortScaleTest, ForwardA2aChargesTheSlowdownExactlyOnce) {
  const TestEnv env = TestEnv::Make(8);
  ModelConfig model = GptMoES();
  model.num_experts = 8;
  model.num_moe_layers = 1;
  const Placement p = ExpertParallel8();
  Assignment a(8, 8);
  a.set(1, 0, 4096);  // GPU0 routes 4096 tokens to expert 1 (on GPU1)
  const RoutedAssignment r = FlexibleRouter::Route(a, p);
  LayerWork work;
  work.routed = &r;
  work.placement = &p;

  ClusterHealth health(8);
  FaultEvent slow;
  slow.type = FaultType::kSlowdown;
  slow.gpu = 1;
  slow.compute_multiplier = 1.0;
  slow.bandwidth_multiplier = 2.0;
  ASSERT_TRUE(health.Apply(slow).ok());

  ClusterState degraded_cluster(env.topo.get());
  StepExecutor degraded(&degraded_cluster, &env.profile, model);
  degraded.set_cluster_health(&health);
  const StepTiming fwd = degraded.ExecuteForward({work});

  const double d =
      4096.0 * model.token_bytes() / env.profile.BandwidthBytesPerSec(0, 1);
  const double lat = env.profile.LatencySeconds(0, 1);
  // Dispatch 0 -> 1 stretches the degraded ingress; combine 1 -> 0
  // stretches the degraded egress. One factor of 2 per leg, never squared.
  const double dispatch_leg = std::max(d, lat + d * 2.0) + lat;
  const double combine_leg = std::max(d * 2.0, lat + d) + lat;
  EXPECT_NEAR(fwd.a2a_seconds, dispatch_leg + combine_leg,
              1e-12 * (dispatch_leg + combine_leg));

  // Against the healthy run: the slowdown costs something, but strictly
  // less than the full 2x either leg would pay under double-stretching.
  ClusterState healthy_cluster(env.topo.get());
  StepExecutor healthy(&healthy_cluster, &env.profile, model);
  const StepTiming base = healthy.ExecuteForward({work});
  EXPECT_GT(fwd.a2a_seconds, base.a2a_seconds);
  EXPECT_LT(fwd.a2a_seconds, 2.0 * base.a2a_seconds);
}

// ---- 6. incremental cost under the pipelined combiner ---------------------

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
    if (rng.UniformInt(8) == 0) continue;
    const int64_t scale = 1 + rng.UniformInt(4000);
    for (int g = 0; g < gpus; ++g) {
      a.set(e, g, static_cast<int64_t>(rng.UniformInt(scale)));
    }
  }
  return a;
}

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

/// Brute-force twin of max_cross_link_into: fold the dispatch matrix by
/// (source node, destination node) and take the max inbound link.
int64_t BruteForceMaxLink(const Topology& topo, const RoutedAssignment& routed,
                          NodeId node) {
  std::vector<int64_t> per_src(static_cast<size_t>(topo.num_nodes()), 0);
  for (GpuId dst = 0; dst < routed.num_gpus; ++dst) {
    if (topo.NodeOf(dst) != node) continue;
    for (GpuId src = 0; src < routed.num_gpus; ++src) {
      if (topo.NodeOf(src) == node) continue;
      per_src[static_cast<size_t>(topo.NodeOf(src))] +=
          routed.dispatch(src, dst);
    }
  }
  int64_t worst = 0;
  for (int64_t v : per_src) worst = std::max(worst, v);
  return worst;
}

void ExpectLinkLoadsMatch(const Topology& topo, const Assignment& a,
                          const Placement& p, const LayerCostState& state) {
  const RoutedAssignment routed = FlexibleRouter::Route(a, p);
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    ASSERT_EQ(state.max_cross_link_into(n), BruteForceMaxLink(topo, routed, n))
        << "max cross link diverged at node " << n;
  }
}

// The per-link load bookkeeping matches a brute-force per-node recount at
// every depth of an Apply/Undo walk. (The walk's bitwise agreement with a
// from-scratch EstimateLayer is LayerCostStateTest.RandomWalk*'s check.)
TEST(LayerCostStateOverlapTest, RandomWalkLinkLoadsExact) {
  for (const bool hierarchical : {false, true}) {
    SCOPED_TRACE(testing::Message() << "hierarchical=" << hierarchical);
    TestEnv env = TestEnv::MakeGrid(2, 4);
    env.profile.set_hierarchical_a2a(hierarchical);
    ModelConfig model = GptMoES();
    model.num_experts = 12;
    CostModel cost(&env.profile, ShapeFromModel(model));

    Rng rng(17);
    const Assignment a = RandomAssignment(rng, model.num_experts, 8);
    Placement start = MakePlacement(model.num_experts, 8, /*slots=*/3);
    for (int i = 0; i < 16; ++i) {
      const Status ignored = ApplyOp(RandomOp(rng, start), &start);
      (void)ignored;
    }

    LayerCostState state(&cost, /*include_sync=*/true);
    state.Reset(a, start);
    ExpectLinkLoadsMatch(*env.topo, a, start, state);

    std::vector<Placement> mirror{start};
    for (int it = 0; it < 400; ++it) {
      if (state.depth() > 0 && rng.UniformInt(4) == 0) {
        state.Undo();
        mirror.pop_back();
        ExpectLinkLoadsMatch(*env.topo, a, mirror.back(), state);
        continue;
      }
      const ModOp op = RandomOp(rng, mirror.back());
      Placement trial = mirror.back();
      if (!ApplyOp(op, &trial).ok()) continue;
      ASSERT_TRUE(state.Apply(op)) << op.ToString();
      mirror.push_back(std::move(trial));
      ExpectLinkLoadsMatch(*env.topo, a, mirror.back(), state);
    }
  }
}

}  // namespace
}  // namespace flexmoe
