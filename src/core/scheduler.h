// Scheduler (paper Algorithm 1): monitors real-time workloads, triggers the
// Policy Maker when the balance metric exceeds its threshold, iterates
// Expand/Shrink planning until no beneficial modification remains, then
// plans background Migrations to consolidate replica groups.
//
// Trigger variants reproduced for the ablations:
//  * metric: Max balance ratio (Eq. 6, the paper's choice) vs. Variance
//    (Fig. 6a);
//  * policy: dynamic threshold-based (the paper's choice) vs. static
//    fixed-interval re-planning (Fig. 6b).

#ifndef FLEXMOE_CORE_SCHEDULER_H_
#define FLEXMOE_CORE_SCHEDULER_H_

#include <vector>

#include "core/policy_maker.h"

namespace flexmoe {

enum class TriggerMetric { kMaxRatio, kVariance };
enum class TriggerPolicy { kDynamic, kStaticInterval };

const char* TriggerMetricName(TriggerMetric m);
const char* TriggerPolicyName(TriggerPolicy p);

/// \brief Scheduler configuration.
struct SchedulerOptions {
  TriggerMetric metric = TriggerMetric::kMaxRatio;
  TriggerPolicy policy = TriggerPolicy::kDynamic;

  /// Trigger threshold. For kMaxRatio this is the balance ratio (>= 1);
  /// for kVariance it is the coefficient of variation of per-GPU loads.
  double threshold = 1.15;
  double variance_threshold = 0.08;

  /// kStaticInterval: re-plan every this many steps regardless of balance.
  int static_interval_steps = 50;

  /// Bound on Algorithm 1's inner planning loop per trigger.
  int max_plan_iterations = 16;

  /// Background migrations planned per trigger (0 disables Migrate).
  int max_migrations = 4;

  Status Validate() const;
};

/// \brief Outcome of one scheduler invocation.
struct SchedulerDecision {
  bool triggered = false;
  int plan_rounds = 0;           ///< Expand/Shrink pairs accepted
  int migrations = 0;
  int evacuations = 0;           ///< migrate-away ops off degraded devices
  double metric_before = 0.0;
  double metric_after = 0.0;
  /// Candidate placements scored through the cost model across all plan
  /// rounds (the policy decision audit's search cost).
  int64_t candidates_evaluated = 0;
  /// Of those, candidates the exact lower bound settled without scoring.
  int64_t candidates_pruned = 0;
  /// Eq. 5 plan score of the incumbent placement at the first plan round
  /// (0 when the trigger never reached the plan loop).
  double est_score_before = 0.0;
  /// Best plan score after the last accepted round (== est_score_before
  /// when no plan was accepted).
  double est_score_after = 0.0;
  /// Recommended pipeline chunk depth for this layer under the planned
  /// placement (auto-K, see OnStep's `chunk_incumbent`); 0 = no
  /// recommendation (fixed K, or the invocation did not trigger).
  int pipeline_chunks = 0;
  /// Ops in dependency order, ready for the PlacementExecutor.
  std::vector<ModOp> ops;
};

/// \brief Implements Algorithm 1 against a target placement.
///
/// The target placement reflects all planned modifications immediately (the
/// Policy Maker must see its own previous decisions); the executor applies
/// them to the live placement as transfers complete.
class Scheduler {
 public:
  Scheduler(const PolicyMaker* policy_maker, const SchedulerOptions& options);

  /// Installs the dynamic-membership view (nullable). A version change in
  /// the health registry — capacity lost to a failure or a straggler,
  /// capacity regained on a join — forces a trigger irrespective of the
  /// balance metric, and a trigger with degraded devices present plans
  /// migrate-away ops before the balance loop.
  void SetClusterHealth(const ClusterHealth* health) { health_ = health; }

  /// Runs the Algorithm 1 body for one step's workload. Mutates `target`.
  /// `force_trigger` bypasses the metric threshold (used by the elastic
  /// controller on the boundary where cluster events fired).
  /// `chunk_incumbent` is the chunk depth the layer currently executes
  /// with under auto-K (DESIGN.md §12), always >= 1: a triggered
  /// invocation then also evaluates the chunk-depth candidates against the
  /// planned placement's cached Eq. 5 partials and publishes the argmin,
  /// with BestChunkDepth's switching hysteresis against the incumbent, as
  /// SchedulerDecision::pipeline_chunks. 0 = fixed K: no depth plan.
  SchedulerDecision OnStep(int64_t step, const Assignment& assignment,
                           Placement* target, bool force_trigger = false,
                           int chunk_incumbent = 0);

  const SchedulerOptions& options() const { return options_; }

  /// The metric value the scheduler would compute for this workload.
  double MetricOf(const Assignment& assignment,
                  const Placement& placement) const;

 private:
  bool ShouldTrigger(int64_t step, double metric_value) const;

  /// The trigger metric over integer per-GPU compute loads.
  double MetricFromTokens(const std::vector<int64_t>& tokens) const;

  const PolicyMaker* policy_maker_;
  SchedulerOptions options_;
  const ClusterHealth* health_ = nullptr;
  /// Scratch for MetricOf (allocation-free steady state) and the
  /// incremental planning state OnStep routes once per invocation — the
  /// trigger metric and the plan loop share that walk, and the plan loop
  /// runs O(Δ) per candidate on it.
  mutable RoutedAssignment metric_scratch_;
  mutable std::vector<int64_t> tokens_scratch_;
  mutable std::vector<double> loads_scratch_;
  LayerCostState plan_state_;
  /// Last health version observed by OnStep, and the step on which the
  /// change was seen — every layer's OnStep call for that step triggers.
  int64_t last_health_version_ = 0;
  int64_t capacity_trigger_step_ = -1;
};

}  // namespace flexmoe

#endif  // FLEXMOE_CORE_SCHEDULER_H_
