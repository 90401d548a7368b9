// The Policy Maker's cost model (paper Section 3.4, Eqs. 5 and 7-9).
//
//   T(I, P) = max_g  sum_{e: (e,g) in P}  T_C(I_eg) + T_A2A(I_eg) + T_Sync(P, e)
//
//   T_C    = I_eg / TPS                       (Eq. 7, compute)
//   T_A2A  = 4 * sum_g' count(g') / Bw_{g,g'} (Eq. 8, All-to-All, 4x/step)
//   T_Sync = size(grads) / BPS(group(e))      (Eq. 9, replica AllReduce)
//
// All environmental variables (TPS, Bw, BPS) come from the profiled
// HardwareProfile. The model is intentionally contention-free; it is
// validated against the discrete-event executors by
// `bench_paper --figure fig6c`.

#ifndef FLEXMOE_CORE_COST_MODEL_H_
#define FLEXMOE_CORE_COST_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/router.h"
#include "moe/model_config.h"
#include "topology/profile.h"

namespace flexmoe {

/// \brief Per-expert quantities the cost model needs, derived from a
/// ModelConfig.
struct ExpertShape {
  double fwdbwd_flops_per_token = 0.0;
  double token_bytes = 0.0;   ///< activation payload per token (one A2A hop)
  double grad_bytes = 0.0;    ///< per-expert gradient AllReduce payload
  double state_bytes = 0.0;   ///< per-expert Expand/Migrate payload
  /// Forward share of fwdbwd_flops_per_token — splits Eq. 7 compute into
  /// the forward leg and the backward remainder, each of which the
  /// executor overlaps with its own A2A crossings. 1/3 for the standard
  /// 1:2 fwd:bwd FLOP split.
  double fwd_fraction = 1.0 / 3.0;
};

ExpertShape ShapeFromModel(const ModelConfig& model);

/// \brief Per-GPU additive cost breakdown for one MoE layer (Eq. 5 terms).
struct LayerCostEstimate {
  std::vector<double> per_gpu_seconds;
  std::vector<double> per_gpu_compute;
  std::vector<double> per_gpu_a2a;
  std::vector<double> per_gpu_sync;
  double total_seconds = 0.0;  ///< max over GPUs (Eq. 5 outer max)

  GpuId BottleneckGpu() const;
};

/// \brief Analytic layer-time estimator.
class CostModel {
 public:
  /// Chunk depths the auto-K planner evaluates (DESIGN.md §12). Powers of
  /// two, matching the static `--pipeline-chunks` values the benches pin.
  static constexpr int kChunkDepthCandidates[4] = {1, 2, 4, 8};

  /// BestChunkDepth's retention margin (DESIGN.md §12.2): a layer's
  /// incumbent depth is kept until some candidate beats its estimate by
  /// more than this fraction. The neighboring-depth estimates oscillate
  /// by fractions of a percent with per-step routing noise, and chasing
  /// each crossing flips the executed depth (and the plan-completion
  /// timing downstream of it) for no modeled gain.
  static constexpr double kChunkDepthSwitchMargin = 0.03;

  /// BestChunkDepth's deepening margin (DESIGN.md §12.2): on a fresh
  /// pick, a deeper candidate must beat the shallower pick's estimate by
  /// more than this fraction to be adopted. Sized at the model's
  /// chunk-physics fidelity — launch overhead and per-message latency
  /// effects below this band are not resolved, so a smaller modeled gain
  /// is not evidence the deeper depth actually wins.
  static constexpr double kChunkDepthDeepeningMargin = 0.03;

  CostModel(const HardwareProfile* profile, const ExpertShape& shape);

  const ExpertShape& shape() const { return shape_; }
  const HardwareProfile& profile() const { return *profile_; }

  /// Combines one GPU's Eq. 5 terms into its layer seconds at chunk depth
  /// K = max(chunks, 1), by one rule at every depth: both MoE legs
  /// pipeline — leg(c_K) = max(d + (c_K+m)/K, c_K + m/K, m) with d = m =
  /// one A2A crossing (a2a/4) and c_K the leg's compute share plus the
  /// (K-1)*kernel_overhead_sec the executor pays for that leg's extra
  /// chunk launches — plus sync, which the executor posts after the
  /// layer's last grad combine. At K = 1 this is compute + a2a + sync up
  /// to rounding. On a compute-bound leg the overhead surfaces in full
  /// (the 2*(K-1)*ovh per-layer penalty across both legs, making the
  /// estimate non-monotone in K exactly like the measured wall(K) law —
  /// what lets a planner choose K); on a wire-bound leg it hides behind
  /// the crossings like the real launches do. Placement planning
  /// (EstimateLayerInto, LayerCostState) scores at chunks = 1 whatever
  /// depth runs (DESIGN.md §12.2); auto-K scores every candidate depth.
  double CombineGpuSeconds(double compute, double a2a, double sync,
                           int chunks) const;

  /// Picks a chunk depth from kChunkDepthCandidates by the Eq. 5 outer
  /// max under CombineGpuSeconds, given a layer's per-GPU term
  /// breakdown. O(G) per candidate on the cached partials — cheap enough
  /// to run on every plan trigger. `incumbent` (the layer's
  /// currently-executing depth under auto-K, 0 = none) is kept while it
  /// stays within kChunkDepthSwitchMargin of the argmin; a fresh pick (or
  /// a switch away from a beaten incumbent) walks the candidate ladder
  /// shallow-to-deep, adopting a deeper depth only when it beats the
  /// current pick by more than kChunkDepthDeepeningMargin
  /// (DESIGN.md §12.2).
  int BestChunkDepth(const std::vector<double>& per_gpu_compute,
                     const std::vector<double>& per_gpu_a2a,
                     const std::vector<double>& per_gpu_sync,
                     int incumbent = 0) const;

  /// Eq. 7: compute seconds for `tokens` tokens on one expert replica.
  double ComputeSeconds(int64_t tokens) const;

  /// Eq. 8 for one receiving GPU: 4 x sum over sources of bytes/Bw.
  ///
  /// With profile().hierarchical_a2a() set, cross-node traffic folds per
  /// source node first (integer token sums — consumes the routing's
  /// node_dispatch aggregates when present, identical otherwise), then one
  /// bandwidth term per remote node, one intra-node term, and the loopback
  /// term, in that canonical order. O(nodes) float terms instead of O(G).
  double A2ASeconds(const RoutedAssignment& routed, GpuId dst) const;

  /// Eq. 9 for one expert under `placement`.
  double SyncSeconds(const Placement& placement, int expert) const;

  /// Eq. 9 for an expert hosted on `hosts` (ascending, distinct) — the
  /// allocation-free form for callers that keep the host list themselves.
  double GroupSyncSeconds(const std::vector<GpuId>& hosts) const;

  /// Eq. 5 evaluated on an explicit routing. `include_sync` = false drops
  /// the Eq. 9 replica-sync term — the serving objective, where no
  /// gradients exist and replication costs only its one-time transfer.
  LayerCostEstimate EstimateLayer(const RoutedAssignment& routed,
                                  const Placement& placement,
                                  bool include_sync = true) const;

  /// EstimateLayer into caller-owned storage, reusing `out`'s vector
  /// allocations — the allocation-free steady-state form.
  void EstimateLayerInto(const RoutedAssignment& routed,
                         const Placement& placement, bool include_sync,
                         LayerCostEstimate* out) const;

  /// Convenience: routes `assignment` with FlexibleRouter, then estimates.
  LayerCostEstimate EstimateLayer(const Assignment& assignment,
                                  const Placement& placement) const;

  /// Routes into the caller-owned `scratch` (reusing its allocations) and
  /// estimates from it — what hot callers should use instead of the
  /// re-routing convenience overload above.
  LayerCostEstimate EstimateLayer(const Assignment& assignment,
                                  const Placement& placement,
                                  RoutedAssignment* scratch) const;

  /// Total estimated seconds (Eq. 5 outer max) for `assignment`.
  double EstimateLayerSeconds(const Assignment& assignment,
                              const Placement& placement) const;
  double EstimateLayerSeconds(const Assignment& assignment,
                              const Placement& placement,
                              RoutedAssignment* scratch) const;

 private:
  double A2ASecondsHierarchical(const RoutedAssignment& routed,
                                GpuId dst) const;

  const HardwareProfile* profile_;
  ExpertShape shape_;
};

/// \brief Contention-free forward-latency estimate for a serving
/// microbatch of `tokens` admitted tokens: per-GPU expert compute at the
/// forward FLOP share under perfectly balanced routing, dispatch+combine
/// All-to-All (two crossings — the forward half of Eq. 8), and the non-MoE
/// forward share. Balanced routing and zero stream contention make this a
/// floor on what the discrete-event executors measure, which is exactly
/// what the ServeExecutor's deadline-aware shedding needs: a request whose
/// deadline precedes even this estimate is provably unreachable
/// (DESIGN.md Section 8).
/// `chunks` mirrors the executor's PipelineOptions: each layer's floor is
/// the pipelined bound max(d + (c_K+m)/K, c_K + m/K, m) (d = dispatch,
/// m = combine, each charging one wire latency, K = chunks, and c_K the
/// compute share plus the extra launch overhead the chunked compute
/// stream provably pays) — d + c + m at K = 1 — a floor on the executor
/// at every depth, so shedding stays provably conservative. chunks == 0
/// is auto-K: the min of the floor over CostModel::kChunkDepthCandidates,
/// a valid floor for whatever per-layer depth the planner picks.
double EstimateForwardMicrobatchSeconds(const HardwareProfile& profile,
                                        const ModelConfig& model,
                                        int num_gpus, int64_t tokens,
                                        int chunks = 1);

/// \brief Memoizing wrapper around EstimateForwardMicrobatchSeconds for
/// the serving admission/shedding hot path. Admission probes the floor for
/// every queued request every batch window, so one serving run makes
/// hundreds of thousands of probes, but over a working set of only a few
/// thousand distinct token counts (sizes repeat across windows and
/// oversized requests are cut to cap-sized chunks). The memo is a flat
/// open-addressing table (linear probing, Fibonacci hash) of kSlots slots
/// that holds that working set whole, so after its first sighting a count
/// costs one hash and a short probe instead of the O(G^2) A2A scan. The
/// table is allocated on the first Seconds() call — 128 KB, never grown —
/// so an estimator that is built but never probed costs nothing. Once it
/// holds kMaxEntries counts, a new count evicts the count in its home slot
/// (or, when that slot is empty, is not stored), which keeps the table
/// bounded and every probe chain intact. Every value it returns is bitwise
/// identical to the direct call (DESIGN.md Section 11.3).
class ForwardFloorEstimator {
 public:
  /// Memo slots (a power of two, for mask indexing) and the fill bound
  /// (3/4 load) past which new counts evict instead of being added.
  static constexpr int kSlotBits = 13;
  static constexpr size_t kSlots = size_t{1} << kSlotBits;
  static constexpr size_t kMaxEntries = kSlots / 4 * 3;

  ForwardFloorEstimator(const HardwareProfile* profile,
                        const ModelConfig& model, int num_gpus,
                        int chunks = 1);

  double Seconds(int64_t tokens) const;

  /// Re-targets the estimator at a new GPU count (the cluster-health
  /// alive count after a failure or recovery). Clears the memo when the
  /// count actually changes — a memoized floor computed for the old
  /// membership is stale, and serving it would let shedding admit
  /// provably-unreachable requests after a failover.
  void set_num_gpus(int num_gpus);
  int num_gpus() const { return num_gpus_; }

  /// Re-targets the estimator at a new chunk depth (0 = auto-K).
  /// Clears the memo when the depth actually changes — the same
  /// staleness failure mode as membership: with auto-K varying the
  /// executor's depth between invocations, a floor memoized for the old K
  /// would silently over- or under-shed.
  void set_chunks(int chunks);
  int chunks() const { return chunks_; }

  /// Memo misses so far: the number of Seconds() calls that ran
  /// EstimateForwardMicrobatchSeconds (counts <= 0 are not memoized and
  /// not counted).
  int64_t computes() const { return computes_; }

 private:
  struct Slot {
    int64_t tokens = 0;  ///< 0 marks an empty slot (counts are > 0)
    double seconds = 0.0;
  };

  void Clear();

  const HardwareProfile* profile_;
  ModelConfig model_;
  int num_gpus_;
  int chunks_;
  mutable std::vector<Slot> slots_;  ///< empty until the first probe
  mutable size_t entries_ = 0;
  mutable int64_t computes_ = 0;
};

}  // namespace flexmoe

#endif  // FLEXMOE_CORE_COST_MODEL_H_
