// MoESystem: the common interface every training system in the comparison
// implements (FlexMoE and the DeepSpeed / FasterMoE / SWIPE baselines).
// A system owns its simulated cluster and consumes per-step, per-layer
// routing assignments produced by a shared TraceGenerator, so all systems
// in an experiment see the identical token stream.
//
// SystemFrame: the part of a step every system shares — the cluster, the
// fault controller and its one health view, the step executor, the fault
// boundary, the re-sharding of dead devices' tokens and the metrics close —
// so the systems differ only in what they do between the boundary and the
// close (DESIGN.md Section 1).

#ifndef FLEXMOE_CORE_SYSTEM_H_
#define FLEXMOE_CORE_SYSTEM_H_

#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/step_executor.h"
#include "elastic/cluster_health.h"
#include "elastic/elastic_controller.h"
#include "elastic/fault_plan.h"
#include "moe/moe_layer.h"
#include "obs/observability.h"
#include "sim/stream.h"

namespace flexmoe {

/// \brief Abstract distributed MoE training system.
class MoESystem {
 public:
  virtual ~MoESystem() = default;

  /// Human-readable system name ("FlexMoE", "DeepSpeed", ...).
  virtual std::string name() const = 0;

  /// Executes one training step for the given per-MoE-layer assignments
  /// and returns its metrics. Implementations advance their simulated
  /// cluster clock internally.
  virtual StepMetrics RunStep(
      const std::vector<Assignment>& layer_assignments) = 0;

  /// Executes one serving microbatch: a forward-only pass over the given
  /// per-layer assignments (no backward, no gradient sync, no optimizer).
  /// Serving never degrades a response — tokens a static layout would drop
  /// (capacity) or re-route (SWIPE) recirculate through a second forward
  /// pass instead, which `tokens_recirculated` counts; `tokens_dropped`
  /// counts only tokens lost to a fault mid-batch (the ServeExecutor
  /// retries the whole batch when that happens). Returned step_seconds is
  /// the microbatch's answer latency.
  virtual StepMetrics ServeMicrobatch(
      const std::vector<Assignment>& layer_assignments) = 0;

  /// All metrics recorded so far.
  virtual const TrainingStats& stats() const = 0;

  /// The simulated cluster (stream utilization introspection).
  virtual const ClusterState& cluster() const = 0;

  /// Arms the system with a schedule of cluster events (fail-stop,
  /// straggler, join/leave) applied at step boundaries. Every system in
  /// the comparison supports this so fault scenarios run apples-to-apples.
  virtual Status InstallFaultPlan(const FaultPlan& plan) {
    (void)plan;
    return Status::Unimplemented("fault injection not supported");
  }

  /// The dynamic-membership view, or nullptr when fault injection was
  /// never installed.
  virtual const ClusterHealth* cluster_health() const { return nullptr; }

  /// Installs the per-run observability handle (nullable; default: none).
  /// `obs` must outlive the system. Systems forward it to their executors
  /// and elastic controller; a disabled or null handle costs one branch
  /// per instrumented phase (DESIGN.md Section 9).
  virtual void SetObservability(obs::Observability* obs) { (void)obs; }
};

/// \brief The shared frame of FlexMoE and the static layouts. A system's
/// Step opens with OpenStep (the fault boundary), charges the blocking
/// with ChargeBoundary once its own boundary work (FlexMoE's adjustment
/// ticks) has added to it, runs on the assignments Reshard returns, and
/// ends with CloseStep (the metrics). Without a fault plan the health view
/// stays all-healthy, so every consumer takes it unconditionally.
class SystemFrame : public MoESystem {
 public:
  // The step executor points into the frame (cluster, health view).
  SystemFrame(const SystemFrame&) = delete;
  SystemFrame& operator=(const SystemFrame&) = delete;

  StepMetrics RunStep(
      const std::vector<Assignment>& layer_assignments) final {
    return CheckedStep(layer_assignments, /*serving=*/false);
  }
  StepMetrics ServeMicrobatch(
      const std::vector<Assignment>& layer_assignments) final {
    return CheckedStep(layer_assignments, /*serving=*/true);
  }
  const TrainingStats& stats() const final { return stats_; }
  const ClusterState& cluster() const final { return cluster_; }
  Status InstallFaultPlan(const FaultPlan& plan) final {
    return elastic_.InstallPlan(plan);
  }
  const ClusterHealth* cluster_health() const final {
    return &elastic_.health();
  }
  void SetObservability(obs::Observability* obs) final;

 protected:
  /// `topo` and `profile` must outlive the system.
  SystemFrame(const Topology* topo, const HardwareProfile* profile,
              const ModelConfig& model, RepairMode repair,
              const PipelineOptions& pipeline);

  /// The prologue of every system's Create: non-null cluster handles,
  /// valid options, and a topology of options.num_gpus devices.
  template <typename Options>
  static Status CheckCreate(const Options& options, const Topology* topo,
                            const HardwareProfile* profile) {
    FLEXMOE_CHECK(topo != nullptr && profile != nullptr);
    FLEXMOE_RETURN_IF_ERROR(options.Validate());
    if (topo->num_gpus() != options.num_gpus) {
      return Status::InvalidArgument("topology GPU count mismatch");
    }
    return Status::OK();
  }

  /// One training step (or, `serving`, one forward-only microbatch) of
  /// the system, from OpenStep to CloseStep. The assignments hold one
  /// entry per MoE layer.
  virtual StepMetrics Step(const std::vector<Assignment>& layer_assignments,
                           bool serving) = 0;

  /// The step boundary: when it is, what the fault plan applied there, and
  /// what the step blocks on before it starts.
  struct Boundary {
    ElasticController::StepReport faults;
    double time = 0.0;  ///< the cluster frontier
    /// Starts at the recovery time; a system adds its blocking
    /// adjustments, in layer order, before ChargeBoundary.
    double blocking = 0.0;
  };

  /// Opens step `step_`: fires the fault plan's due events, which repair
  /// the `num_placements` placements at `placements` (and evict the dead
  /// devices' groups from `groups`, nullable), and records them in
  /// `metrics` (step, faults_applied, recovery_seconds, and degraded, from
  /// the placements as repaired).
  Boundary OpenStep(Placement* placements, size_t num_placements,
                    NcclGroupCache* groups, StepMetrics* metrics);

  /// Blocks every stream for `boundary.blocking` from the boundary and
  /// traces the boundary's fault events, the recovery (`recovery_block`)
  /// and the blocking adjustments after it (`adjust_block`).
  void ChargeBoundary(const Boundary& boundary);

  /// The assignments the step runs on: `layer_assignments` itself, or,
  /// while some device is dead, each layer re-sharded onto the survivors
  /// into `*scratch` (tokens lost on a device that just fail-stopped are
  /// added to metrics->tokens_dropped).
  const std::vector<Assignment>& Reshard(
      const std::vector<Assignment>& layer_assignments,
      std::vector<Assignment>* scratch, StepMetrics* metrics) const;

  /// Closes the step: the timing and efficiency fields from `timing` plus
  /// `blocking_seconds`, token efficiency with `reassigned` tokens counted
  /// against it like drops, the registry counters; records the step and
  /// returns it.
  StepMetrics CloseStep(const StepTiming& timing, double blocking_seconds,
                        int64_t reassigned, bool serving, StepMetrics* metrics);

  const HardwareProfile* profile_;
  ClusterState cluster_;
  ElasticController elastic_;
  StepExecutor step_executor_;
  int64_t step_ = 0;
  obs::Observability* obs_ = nullptr;

 private:
  StepMetrics CheckedStep(const std::vector<Assignment>& layer_assignments,
                          bool serving);

  int num_layers_;
  double expert_state_bytes_;
  TrainingStats stats_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_CORE_SYSTEM_H_
