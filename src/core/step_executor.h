// Shared engine-level execution of one training step. FlexMoE and every
// baseline system express a step as a list of LayerWork items (routing,
// placement, optional syncs) and delegate the simulated execution here,
// so all systems are timed by the identical machinery:
//
//   forward:  per layer — [shadow broadcasts] -> dispatch A2A -> expert
//             compute (1/3 of fwd+bwd FLOPs) -> combine A2A
//   middle:   non-MoE compute (attention, dense FFNs, gate, optimizer)
//   backward: per layer, reverse order — grad dispatch A2A -> expert
//             compute (2/3) -> grad combine A2A
//   sync:     per replicated expert, AllReduce in ascending logical-id
//             order (deadlock-free posting), NCCL groups via LRU cache;
//             then the data-parallel AllReduce of non-MoE gradients.
//
// Every dispatch -> compute -> combine leg (forward, recirculation,
// backward) runs through one K-chunk body, RunLayerLeg; the unpipelined
// leg is its K = 1 case, not a separate code path (DESIGN.md §11.1), and
// the cost model charges every depth by the same rule (core/cost_model.h).

#ifndef FLEXMOE_CORE_STEP_EXECUTOR_H_
#define FLEXMOE_CORE_STEP_EXECUTOR_H_

#include <algorithm>
#include <vector>

#include "collective/engine_ops.h"
#include "collective/nccl_group.h"
#include "core/router.h"
#include "elastic/cluster_health.h"
#include "moe/model_config.h"
#include "obs/observability.h"
#include "placement/placement.h"

namespace flexmoe {

/// \brief One shadow-parameter broadcast (FasterMoE baseline).
struct ShadowBroadcast {
  GpuId root = 0;
  double bytes = 0.0;
};

/// Deepest pipeline chunk split the executor accepts. The auto-K
/// planner's candidates top out at 8; past that every extra chunk only adds
/// kernel launches, and the per-chunk state must stay small.
inline constexpr int kMaxPipelineChunks = 64;

/// \brief MoE-leg pipelining configuration (DESIGN.md Sections 11 and 12).
///
/// Each MoE leg (forward and backward) splits its routed tokens into K
/// per-cell pieces (cell v contributes v*(k+1)/K - v*k/K tokens to chunk k
/// — integer-exact, sums to v, last chunk is the ceil), and the per-chunk
/// dispatch A2A, expert compute, and combine A2A overlap through the
/// per-GPU stream reservations: chunk k+1's dispatch occupies the NIC
/// while chunk k computes, and combines drain behind compute. chunks == 1
/// is the same leg at K = 1 (one piece per cell, nothing to overlap).
/// chunks == 0 is auto-K:
/// the depth is planned per layer and arrives via LayerWork::chunks;
/// layers with no planned depth yet run at K = 1. Validate() accepts
/// [0, kMaxPipelineChunks].
struct PipelineOptions {
  int chunks = 1;

  Status Validate() const;
};

/// \brief Everything needed to execute one MoE layer.
struct LayerWork {
  const RoutedAssignment* routed = nullptr;
  /// Placement for replica synchronization; nullptr => no replica sync
  /// (e.g. plain expert parallelism).
  const Placement* placement = nullptr;
  /// Extra synchronization groups beyond the placement-derived ones
  /// (e.g. FasterMoE's global shadow-gradient AllReduce).
  std::vector<std::vector<GpuId>> extra_sync_groups;
  std::vector<ShadowBroadcast> broadcasts;
  /// Per-layer pipeline chunk depth override (auto-K planning). 0 defers
  /// to PipelineOptions::chunks; > 0 pins this layer's depth.
  int chunks = 0;
};

/// \brief Timing of one executed step.
struct StepTiming {
  double start = 0.0;
  double end = 0.0;
  double a2a_seconds = 0.0;
  double compute_seconds = 0.0;
  /// Expert-replica synchronization on the critical path: only the tail
  /// that outlasts the backward pass (syncs overlap with backward).
  double sync_seconds = 0.0;
  /// Total expert-sync activity regardless of overlap (launch-to-finish
  /// summed over collectives); measures the sync work replication costs
  /// even when it hides behind backward compute.
  double sync_busy_seconds = 0.0;
  /// Data-parallel AllReduce of non-MoE gradients (every system pays it).
  double dp_sync_seconds = 0.0;
  double non_moe_seconds = 0.0;
  /// Expert-compute busy seconds per GPU this step (efficiency metrics).
  std::vector<double> per_gpu_expert_compute;

  double StepSeconds() const { return end - start; }
};

/// \brief Executes steps on the discrete-event cluster.
class StepExecutor {
 public:
  StepExecutor(ClusterState* cluster, const HardwareProfile* profile,
               const ModelConfig& model);

  /// Executes one full step; `group_cache` may be nullptr (no group costs).
  StepTiming ExecuteStep(const std::vector<LayerWork>& layers,
                         NcclGroupCache* group_cache);

  /// Executes a forward-only pass (the serving path, DESIGN.md Section 8):
  /// per layer — [shadow broadcasts] -> dispatch A2A -> expert compute at
  /// forward FLOPs -> combine A2A — then the non-MoE forward compute. No
  /// backward, no expert/data-parallel gradient sync, no optimizer; the
  /// timing therefore measures the latency of answering one microbatch.
  /// `layers` may contain more entries than the model has MoE layers
  /// (recirculation passes append extra LayerWork); the non-MoE forward
  /// cost is charged once regardless.
  StepTiming ExecuteForward(const std::vector<LayerWork>& layers);

  /// The earliest time all training-critical streams are free — the start
  /// of the next step.
  double Frontier() const;

  /// Installs the dynamic-membership view (nullable; default: a static,
  /// healthy cluster). Dead devices take part in no phase of the step;
  /// degraded devices run compute and move bytes at their multipliers.
  void set_cluster_health(const ClusterHealth* health) { health_ = health; }
  const ClusterHealth* cluster_health() const { return health_; }

  /// Installs the pipelining configuration (chunks in
  /// [0, kMaxPipelineChunks]; chunks == 1 runs every leg at K = 1;
  /// chunks == 0 is auto-K — per-layer depths come from LayerWork::chunks).
  void set_pipeline(const PipelineOptions& pipeline) { pipeline_ = pipeline; }
  const PipelineOptions& pipeline() const { return pipeline_; }

  /// Installs the per-run observability handle (nullable). With tracing
  /// enabled, every step phase emits per-GPU spans — dispatch/combine A2A,
  /// expert compute (forward, backward, recirculation), expert sync, DP
  /// sync — stamped with the engine's sim times.
  void set_observability(obs::Observability* obs) { obs_ = obs; }

 private:
  obs::Tracer* trace() const { return obs::TracerOf(obs_); }
  bool Alive(GpuId g) const { return health_ == nullptr || health_->alive(g); }
  double ComputeScale(GpuId g) const {
    return health_ == nullptr ? 1.0 : health_->compute_multiplier(g);
  }
  /// Per-GPU NIC-port stretch factors from the health view, or nullptr on
  /// a static healthy cluster. Passed to every collective so a straggler
  /// stretches exactly its own ports, exactly once — never the healthy
  /// peers' (the engine-level port_scale contract, engine_ops.h).
  const std::vector<double>* BandwidthScales() const;
  /// All currently alive GPUs, ascending.
  std::vector<GpuId> AliveGpus() const;

  /// Trace span names of one MoE leg (string literals).
  struct LegSpans {
    const char* dispatch;
    const char* compute;
    const char* combine;
    const char* a2a_category;
  };
  /// The backward leg's expert-sync state: the group cache and the running
  /// max of every launched sync's finish.
  struct LegSync {
    NcclGroupCache* group_cache;
    double finish;
  };

  /// Chunk k of K of the dispatch byte matrix (optionally transposed for
  /// combine; the per-cell split rule of PipelineOptions, K = 1 is the
  /// whole matrix) into a reusable scratch buffer. The returned reference
  /// is valid until the next DispatchBytes call on this executor.
  const ByteMatrix& DispatchBytes(const RoutedAssignment& routed,
                                  bool transpose, int k, int K) const;

  /// Runs chunk k of K of one layer's expert compute with the given
  /// FLOPs/token, each GPU starting at its `per_gpu_earliest`; returns the
  /// chunk's finish time. Busy time charged per GPU is each kernel's
  /// reservation interval (finish - reserved start), never the wait for
  /// the compute stream. `span_name` labels the per-GPU trace spans (must
  /// be a string literal); their args are the layer and the chunk index.
  double RunExpertCompute(const RoutedAssignment& routed,
                          double flops_per_token, int k, int K,
                          const std::vector<double>& per_gpu_earliest,
                          StepTiming* timing, const char* span_name,
                          int layer);

  /// The chunk depth one layer actually runs at: LayerWork::chunks when
  /// planned (> 0), else PipelineOptions::chunks, else 1.
  int EffectiveChunks(const LayerWork& work) const {
    if (work.chunks > 0) return work.chunks;
    return std::max(pipeline_.chunks, 1);
  }

  /// The forward pass over `layers` — [shadow broadcasts] -> the MoE leg
  /// at forward FLOPs, per layer — shared verbatim by ExecuteStep and
  /// ExecuteForward so the two paths can never diverge in dispatch or
  /// broadcast semantics. Returns the new frontier.
  double RunForwardLayers(const std::vector<LayerWork>& layers,
                          const std::vector<GpuId>& alive, double frontier,
                          StepTiming* timing);

  /// One layer's dispatch -> expert compute -> combine leg at
  /// K = EffectiveChunks(work) (DESIGN.md Sections 11.1 and 12.1): all K
  /// dispatch chunks are posted from `frontier` (the NIC ports serialize
  /// them), each chunk's compute starts at that chunk's per-GPU dispatch
  /// finish, and each chunk's combine launches at that chunk's global
  /// compute finish — so chunk k+1's dispatch overlaps chunk k's compute
  /// and combines drain behind compute. Returns the leg's end.
  ///
  /// `sync` (backward leg only; nullptr elsewhere) launches the layer's
  /// expert syncs at the all-chunk compute finish, when every gradient
  /// contribution is in, posted after the last combine at every K. The
  /// posting order decides which of the syncs and the combines queue first
  /// on the shared NIC ports; after the combines is the order the cost
  /// model's serial `+ sync` term charges, and it is pinned by
  /// pipelined_timing_test (DESIGN.md §12.1).
  double RunLayerLeg(const LayerWork& work, int layer, const LegSpans& spans,
                     double flops_per_token,
                     const std::vector<double>* scales, double frontier,
                     StepTiming* timing, LegSync* sync);

  /// Reserves `seconds` of non-MoE compute (stretched per GPU by its
  /// compute multiplier) on every live GPU from `frontier`; returns the
  /// phase finish.
  double RunNonMoECompute(double seconds, double frontier,
                          StepTiming* timing);

  /// Builds and launches one layer's expert-replica syncs (placement
  /// groups plus extra_sync_groups, ascending logical id, dead members
  /// dropped) at `earliest`; returns max(sync_finish, each collective's
  /// finish) and accumulates sync_busy_seconds.
  double RunLayerSyncs(const LayerWork& work, double earliest,
                       NcclGroupCache* group_cache,
                       const std::vector<double>* scales, StepTiming* timing,
                       double sync_finish);

  ClusterState* cluster_;
  const HardwareProfile* profile_;
  ModelConfig model_;
  const ClusterHealth* health_ = nullptr;
  obs::Observability* obs_ = nullptr;
  PipelineOptions pipeline_;
  /// Per-call scratch owned by the executor (see DESIGN.md "Performance
  /// architecture"); mutable because DispatchBytes and BandwidthScales are
  /// logically const.
  mutable ByteMatrix dispatch_bytes_scratch_;
  mutable std::vector<double> port_scale_scratch_;
  /// Per-chunk dispatch results for the layer in flight (K is bounded by
  /// kMaxPipelineChunks).
  std::vector<CollectiveResult> chunk_dispatch_scratch_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_CORE_STEP_EXECUTOR_H_
