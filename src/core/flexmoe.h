// FlexMoESystem: the full FlexMoE runtime (paper Figure 4) assembled from
// the building blocks — per-layer placements with vExperts, the flexible
// token Router, the discrete-event step execution, the Scheduler + Policy
// Maker monitoring loop, and the best-effort PlacementExecutor applying
// Expand/Shrink/Migrate on a background stream.
//
// As in the paper, the scheduling module plans beside the runtime: a
// step's MoE layers plan while the step executes on the engine, on a
// planner helper thread when a core is free (DESIGN.md Sections 3 and 6.4).
// Decisions apply in layer order after both finish, so every output is
// the same whichever thread planned a layer.

#ifndef FLEXMOE_CORE_FLEXMOE_H_
#define FLEXMOE_CORE_FLEXMOE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "collective/nccl_group.h"
#include "core/cost_model.h"
#include "core/scheduler.h"
#include "core/system.h"
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
class FlexMoESystem : public SystemFrame {
 public:
  /// `topo` and `profile` must outlive the system.
  static Result<std::unique_ptr<FlexMoESystem>> Create(
      const FlexMoEOptions& options, const Topology* topo,
      const HardwareProfile* profile);

  /// Stops the planner helper, if one started, and joins it.
  ~FlexMoESystem() override;

  std::string name() const override { return "FlexMoE"; }

  const Placement& live_placement(int layer) const;
  const Placement& target_placement(int layer) const;
  const PlacementExecutor& executor(int layer) const {
    return executors_[static_cast<size_t>(layer)];
  }
  const NcclGroupCache& group_cache() const { return group_cache_; }
  const CostModel& cost_model() const { return cost_model_; }

  /// True once the planner helper thread has started (it starts on the
  /// first step with two or more layers to plan and a free core).
  bool planner_helper_started() const { return helper_.joinable(); }

 private:
  FlexMoESystem(const FlexMoEOptions& options, const Topology* topo,
                const HardwareProfile* profile, NcclGroupCache group_cache,
                std::vector<Placement> initial);

  /// The adjustment ticks, routing, planning and auto-K of one step; the
  /// training step and the serving microbatch differ only in the engine
  /// pass (full step vs forward-only).
  StepMetrics Step(const std::vector<Assignment>& layer_assignments,
                   bool serving) override;

  /// Claims layers of the current plan job from `next_plan_` and runs
  /// their scheduler invocations until none are left.
  void PlanLayers();

  /// Starts the planner helper if the thread budget has a core free.
  void MaybeStartHelper();
  /// The helper's entry: runs PlanLayers for each posted job until
  /// stopped, then hands back its core.
  void HelperMain();
  /// Blocks until the helper has finished the posted job (returns at once
  /// when no job is pending).
  void WaitForHelper();

  FlexMoEOptions options_;
  CostModel cost_model_;
  PolicyMaker policy_maker_;
  NcclGroupCache group_cache_;

  std::vector<Placement> live_;
  std::vector<Placement> target_;
  std::vector<PlacementExecutor> executors_;
  /// One Scheduler (planning state and scratch) per layer, so layers plan
  /// on any thread, at the same time, each from its own state.
  std::vector<Scheduler> schedulers_;

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

  /// Polled once per step on which some layer plans.
  CapacityTrigger capacity_trigger_;

  /// The current step's plan job: the layers that plan, in layer order,
  /// what each invocation reads, and one decision slot per planning layer.
  /// The caller writes it before posting the job and reads the decisions
  /// after the join; a slot is written by whichever thread claims the
  /// layer (from `next_plan_`).
  struct PlanJob {
    int64_t step = 0;
    const std::vector<Assignment>* assignments = nullptr;
    std::vector<int> layers;
    std::vector<int> chunk_incumbents;
    std::vector<SchedulerDecision> decisions;
    bool force_trigger = false;
  };
  PlanJob plan_;
  std::atomic<size_t> next_plan_{0};

  /// The planner helper (DESIGN.md Section 6.4): one thread, woken once
  /// per step that has layers to plan.
  std::mutex helper_mu_;
  std::condition_variable helper_cv_;  ///< a job is posted, or stop
  std::condition_variable done_cv_;    ///< the helper finished its job
  // Guarded by helper_mu_.
  bool job_pending_ = false;  ///< posted, and the helper has not finished
  bool helper_stop_ = false;
  std::exception_ptr helper_failure_;
  std::thread helper_;  ///< after every member the helper uses
};

}  // namespace flexmoe

#endif  // FLEXMOE_CORE_FLEXMOE_H_
