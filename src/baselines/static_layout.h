// The static-layout baselines of the paper's evaluation (Section 5,
// Figures 5 and 7a): one fixed home GPU per expert (GShard placement),
// never re-placed. DeepSpeed expert parallelism, SWIPE strict balancing
// and FasterMoE shadowing differ only in how each layer's tokens are
// admitted onto that layout (StaticAdmission). Faults are handled the
// static way: checkpoint restart plus wholesale failover of a dead
// device's experts, no rebalancing (DESIGN.md Section 5).

#ifndef FLEXMOE_BASELINES_STATIC_LAYOUT_H_
#define FLEXMOE_BASELINES_STATIC_LAYOUT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/step_executor.h"
#include "core/system.h"
#include "elastic/elastic_controller.h"

namespace flexmoe {

/// \brief How a static layout admits each layer's tokens.
enum class StaticAdmission {
  /// DeepSpeed: a uniform per-expert capacity. Training drops the overflow
  /// (a token-efficiency loss, Table 2); serving recirculates it through a
  /// second forward pass.
  kCapacity,
  /// SWIPE (BaGuaLu, PPoPP'22): training re-assigns overflow to experts
  /// the gate did not choose. A response cannot use a wrong expert's
  /// output, so serving is kCapacity at factor 1.0.
  kStrictRebalance,
  /// FasterMoE (He et al., PPoPP'22): hot experts are replicated on every
  /// GPU for the step, at the price of a parameter broadcast and, in
  /// training, a global gradient AllReduce. Nothing is dropped.
  kShadow,
};

/// \brief The admission behind a system key ("deepspeed", "swipe",
/// "fastermoe"; case-insensitive), or nullopt for any other key.
std::optional<StaticAdmission> StaticAdmissionFor(const std::string& key);

/// \brief Static-layout system configuration.
struct StaticLayoutOptions {
  ModelConfig model;
  int num_gpus = 64;
  StaticAdmission admission = StaticAdmission::kCapacity;
  /// Per-expert capacity factor of kCapacity; <= 0 disables capacity (no
  /// dropping). Must be finite.
  double capacity_factor = 1.0;
  /// Forward-pass chunked overlap (core/step_executor.h); shared by all
  /// systems so pipelining comparisons hold the executor semantics fixed.
  PipelineOptions pipeline;

  Status Validate() const;
};

/// \brief Rebalances one assignment to uniform per-expert load; returns the
/// balanced assignment and the number of re-assigned token-assignments.
struct SwipeRebalance {
  Assignment balanced;
  int64_t reassigned = 0;
};
SwipeRebalance RebalanceStrict(const Assignment& assignment);

/// \brief Builds the canonical one-home-GPU-per-expert placement (exactly
/// one vExpert per expert, no replicas).
Result<Placement> FixedExpertParallelPlacement(int num_experts, int num_gpus);

/// \brief A fixed expert-parallel layout with one of three admissions.
class StaticLayoutSystem : public MoESystem {
 public:
  static Result<std::unique_ptr<StaticLayoutSystem>> Create(
      const StaticLayoutOptions& options, const Topology* topo,
      const HardwareProfile* profile);

  /// "DeepSpeed", "SWIPE" or "FasterMoE", after the admission.
  std::string name() const override;
  StepMetrics RunStep(
      const std::vector<Assignment>& layer_assignments) override {
    return RunStepImpl(layer_assignments, /*serving=*/false);
  }
  StepMetrics ServeMicrobatch(
      const std::vector<Assignment>& layer_assignments) override {
    return RunStepImpl(layer_assignments, /*serving=*/true);
  }
  const TrainingStats& stats() const override { return stats_; }
  const ClusterState& cluster() const override { return cluster_; }
  Status InstallFaultPlan(const FaultPlan& plan) override {
    return elastic_.InstallPlan(plan);
  }
  const ClusterHealth* cluster_health() const override {
    return &elastic_.health();
  }
  void SetObservability(obs::Observability* obs) override;

  /// Experts shadowed in the most recent step, per layer (all empty
  /// unless kShadow).
  const std::vector<std::vector<int>>& last_shadows() const {
    return last_shadows_;
  }

 private:
  StaticLayoutSystem(const StaticLayoutOptions& options, const Topology* topo,
                     const HardwareProfile* profile, Placement placement);

  /// Fires the fault boundary: repairs the placement (restart + failover)
  /// and blocks every stream for the recovery time. No-op without a plan.
  ElasticController::StepReport FaultBoundary();
  StepMetrics RunStepImpl(const std::vector<Assignment>& layer_assignments,
                          bool serving);

  StaticLayoutOptions options_;
  const HardwareProfile* profile_;
  ClusterState cluster_;
  ElasticController elastic_;
  Placement placement_;
  StepExecutor step_executor_;
  TrainingStats stats_;
  std::vector<std::vector<int>> last_shadows_;
  int64_t step_ = 0;
  obs::Observability* obs_ = nullptr;
};

}  // namespace flexmoe

#endif  // FLEXMOE_BASELINES_STATIC_LAYOUT_H_
