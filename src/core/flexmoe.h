// FlexMoESystem: the full FlexMoE runtime (paper Figure 4) assembled from
// the building blocks — per-layer placements with vExperts, the flexible
// token Router, the discrete-event step execution, the Scheduler + Policy
// Maker monitoring loop, and the best-effort PlacementExecutor applying
// Expand/Shrink/Migrate on a background stream.

#ifndef FLEXMOE_CORE_FLEXMOE_H_
#define FLEXMOE_CORE_FLEXMOE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "collective/nccl_group.h"
#include "core/cost_model.h"
#include "core/scheduler.h"
#include "core/step_executor.h"
#include "core/system.h"
#include "elastic/elastic_controller.h"
#include "placement/executor.h"

namespace flexmoe {

/// \brief FlexMoE configuration.
struct FlexMoEOptions {
  ModelConfig model;
  int num_gpus = 64;
  /// vExpert slots per GPU (0 = auto).
  int slots_per_gpu = 0;
  SchedulerOptions scheduler;
  PolicyMakerOptions policy;
  ExecutorOptions executor;
  /// Chunked A2A/compute overlap (core/step_executor.h). Placement
  /// planning always scores at K = 1 regardless of this depth, by the
  /// same combiner rule that scores every depth (DESIGN.md §12.2).
  /// chunks == 0 enables auto-K: the Scheduler plans a per-layer depth
  /// from that cost model and the system threads it into every layer's
  /// execution (DESIGN.md §12).
  PipelineOptions pipeline;

  Status Validate() const;
};

/// \brief The FlexMoE training system.
class FlexMoESystem : public MoESystem {
 public:
  /// `topo` and `profile` must outlive the system.
  static Result<std::unique_ptr<FlexMoESystem>> Create(
      const FlexMoEOptions& options, const Topology* topo,
      const HardwareProfile* profile);

  std::string name() const override { return "FlexMoE"; }
  StepMetrics RunStep(
      const std::vector<Assignment>& layer_assignments) override;
  StepMetrics ServeMicrobatch(
      const std::vector<Assignment>& layer_assignments) override;
  const TrainingStats& stats() const override { return stats_; }
  const ClusterState& cluster() const override { return cluster_; }
  Status InstallFaultPlan(const FaultPlan& plan) override;
  const ClusterHealth* cluster_health() const override {
    return &elastic_.health();
  }
  void SetObservability(obs::Observability* obs) override;

  const Placement& live_placement(int layer) const;
  const Placement& target_placement(int layer) const;
  const PlacementExecutor& executor(int layer) const {
    return executors_[static_cast<size_t>(layer)];
  }
  const NcclGroupCache& group_cache() const { return group_cache_; }
  const CostModel& cost_model() const { return cost_model_; }

 private:
  FlexMoESystem(const FlexMoEOptions& options, const Topology* topo,
                const HardwareProfile* profile, NcclGroupCache group_cache,
                std::vector<Placement> initial);

  /// Shared body of RunStep / ServeMicrobatch: the elastic boundary, the
  /// placement-adjustment loop, routing, and the scheduler all behave
  /// identically — only the engine pass differs (full training step vs
  /// forward-only serving pass).
  StepMetrics RunStepImpl(const std::vector<Assignment>& layer_assignments,
                          bool serving);

  FlexMoEOptions options_;
  const Topology* topo_;
  const HardwareProfile* profile_;
  ClusterState cluster_;
  ElasticController elastic_;
  CostModel cost_model_;
  PolicyMaker policy_maker_;
  Scheduler scheduler_;
  NcclGroupCache group_cache_;
  StepExecutor step_executor_;

  std::vector<Placement> live_;
  std::vector<Placement> target_;
  std::vector<PlacementExecutor> executors_;

  /// Per-layer planning backoff: a trigger that accepts no plan doubles
  /// the layer's cooldown (capped), an accepted plan resets it. Avoids
  /// re-running the full candidate search every step once the placement
  /// sits at the feasibility floor.
  std::vector<int64_t> next_plan_step_;
  std::vector<int> plan_backoff_;

  /// Auto-K (options_.pipeline.chunks == 0 — DESIGN.md §12): the chunk
  /// depth each layer currently executes with. 0 = not yet planned; the
  /// first step a layer is routed picks an initial depth directly from the
  /// routed assignment, and every scheduler trigger refreshes it from the
  /// planned placement. Unused (empty checks aside) under static K.
  std::vector<int> layer_chunks_;

  TrainingStats stats_;
  int64_t step_ = 0;
  obs::Observability* obs_ = nullptr;
};

}  // namespace flexmoe

#endif  // FLEXMOE_CORE_FLEXMOE_H_
