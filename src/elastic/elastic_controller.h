// ElasticController: the per-system fault-handling authority. It owns the
// ClusterHealth view and walks the installed FaultPlan: at each step
// boundary it applies the due events (membership changes in real clusters
// surface between steps: a NCCL error, a lost heartbeat, an elastic-agent
// rendezvous), invalidates NCCL groups that include departed devices, repairs
// the system's placements (elastic drain for FlexMoE, static failover for
// the baselines), and prices the recovery work the system must block on.
//
// Two recovery disciplines, matching what the systems can actually do:
//
//  * elastic (FlexMoE): dead devices are drained — replicated experts lose
//    one replica for free, sole-replica experts are re-read from the
//    checkpoint store. No restart: the dynamic placement machinery then
//    rebalances the survivors in the background.
//  * static (DeepSpeed-EP / FasterMoE / SWIPE): a fail-stop forces a full
//    checkpoint restart; the dead device's experts pile onto one failover
//    peer, where they stay (a fixed layout cannot rebalance) until a
//    replacement device joins and the original layout is restored.

#ifndef FLEXMOE_ELASTIC_ELASTIC_CONTROLLER_H_
#define FLEXMOE_ELASTIC_ELASTIC_CONTROLLER_H_

#include <cstdint>
#include <vector>

#include "collective/nccl_group.h"
#include "elastic/cluster_health.h"
#include "elastic/fault_plan.h"
#include "elastic/recovery.h"
#include "obs/observability.h"
#include "topology/profile.h"

namespace flexmoe {

/// \brief How the controller repairs a membership change.
enum class RepairMode {
  /// Elastic drain + continue (FlexMoE).
  kDrain,
  /// Checkpoint restart + failover (static layouts).
  kRestart,
};

/// \brief Drives fault handling for one training system.
class ElasticController {
 public:
  ElasticController(int num_gpus, const Topology* topo, RepairMode mode);

  /// Arms the controller with a plan; resets health to all-healthy and
  /// forgets any previously captured placement baseline.
  Status InstallPlan(const FaultPlan& plan);

  /// The membership view: all-healthy until a plan's events change it.
  const ClusterHealth& health() const { return health_; }

  struct StepReport {
    std::vector<FaultEvent> events;   ///< applied this boundary
    bool membership_changed = false;
    bool perf_changed = false;        ///< slowdown/recover applied
    /// Blocking fault-handling time charged to this step (restart penalty,
    /// checkpoint reads).
    double recovery_seconds = 0.0;
    int experts_restored = 0;
    /// Experts left without a live replica (repair impossible): the system
    /// must report the step as degraded.
    int orphaned_experts = 0;
  };

  /// Applies, in plan order, every not-yet-fired event with
  /// event.step <= step (a late boundary still delivers them all), and
  /// repairs the `num_placements` placements at `placements` in place. An
  /// event whose precondition no longer holds (a random plan's Recover for
  /// a GPU a later fail-stop took down) is skipped, not fatal, as real
  /// fault handlers must tolerate stale alerts. When the first events fire,
  /// the pre-fault placements are captured as the restore baseline for
  /// static systems. `group_cache` (nullable) loses every group containing
  /// a departed device. Placements passed here must keep the same shape
  /// across calls. A boundary with no event due touches nothing.
  StepReport OnStepBoundary(int64_t step, Placement* placements,
                            size_t num_placements, NcclGroupCache* group_cache,
                            double expert_state_bytes);

  /// Prepares one layer's gate assignment for the current membership:
  /// tokens sourced on devices that *fail-stopped at this boundary* are
  /// lost (added to `*tokens_dropped`); tokens sourced on previously
  /// departed devices were re-sharded onto survivors and are redistributed.
  /// Only needed while some device is dead: stragglers keep their shard.
  Assignment AdjustAssignment(const Assignment& assignment,
                              int64_t* tokens_dropped) const;

  /// Installs the per-run observability handle (nullable): fault events,
  /// membership changes, restored/orphaned experts, and recovery time go
  /// into the metrics registry. The controller has no sim clock, so the
  /// system's frame (SystemFrame) emits the recovery trace events.
  void SetObservability(obs::Observability* obs) { obs_ = obs; }

 private:
  /// Counts `report` in the metrics registry (no-op without a handle).
  void RecordReport(const StepReport& report);

  int num_gpus_;
  const Topology* topo_;
  RepairMode mode_;
  ClusterHealth health_;
  FaultPlan plan_;
  size_t next_event_ = 0;  ///< the first event of plan_ not yet fired
  std::vector<Placement> baseline_;  ///< pre-fault layouts (static repair)
  bool baseline_captured_ = false;
  std::vector<GpuId> newly_failed_;  ///< fail-stops at the current boundary
  obs::Observability* obs_ = nullptr;
};

}  // namespace flexmoe

#endif  // FLEXMOE_ELASTIC_ELASTIC_CONTROLLER_H_
