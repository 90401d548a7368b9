// Policy Maker (paper Algorithm 2): cost-model-driven greedy planning.
//
// Each call inspects the current workload I and placement P, finds the
// expert with the maximum per-vExpert capacity (hottest) and the one with
// the minimum (coldest), simulates Expand(hot) + Shrink(cold), and returns
// the pair iff the estimated layer time strictly improves. The Scheduler
// calls this in a loop until no beneficial modification remains.
//
// Beyond the paper's pseudocode, two concrete decisions are needed and are
// made here:
//  * which replica of the cold expert to shrink — the one on the most
//    loaded GPU (relieves the bottleneck), preferring replica-group
//    shrinkage ties;
//  * which GPU receives the hot expert's new vExpert — every GPU with a
//    free slot is evaluated through the cost model and the best one wins
//    (GPUs already hosting the expert cost nothing to expand onto);
//  * the order bounded expand candidates are tried in — node-local to the
//    hot expert first. The hardware profile selects the tie-break: with
//    hierarchical A2A estimation (the large-EP regime, DESIGN.md Section
//    10) node-local ties rank by the heaviest single inbound cross-node
//    link, then the node's aggregate cross-node inflow, then GPU load
//    (SNIPPETS.md Snippets 2-3); on a flat profile by GPU load alone.

#ifndef FLEXMOE_CORE_POLICY_MAKER_H_
#define FLEXMOE_CORE_POLICY_MAKER_H_

#include <vector>

#include "core/cost_model.h"
#include "core/incremental_cost.h"
#include "elastic/cluster_health.h"
#include "placement/primitives.h"

namespace flexmoe {

/// \brief Planner configuration.
struct PolicyMakerOptions {
  /// Accept a plan only if t1 < t0 * (1 - min_improvement_frac); guards
  /// against expand/shrink oscillation on estimation noise.
  double min_improvement_frac = 0.005;
  /// Upper bound on expand-destination candidates evaluated per plan
  /// (<= 0 evaluates all GPUs with free slots). Bounded by default: each
  /// candidate costs a full routing + Eq. 5 evaluation.
  int max_expand_candidates = 4;

  /// Serving objective (DESIGN.md Section 8): optimize the forward
  /// latency of a microbatch instead of the training step time. With no
  /// gradients to synchronize, the Eq. 9 replica-sync term disappears
  /// from the Eq. 5 estimate, so replicating a hot expert costs only its
  /// one-time transfer — the planner chases p99 latency / SLO attainment
  /// by spreading hot experts far more aggressively than it would when
  /// every replica keeps paying sync.
  bool serve_objective = false;

  Status Validate() const;
};

/// \brief What one MakeSchedulingPlan search did — the audit trail behind
/// a policy decision (DESIGN.md Section 9).
struct PlanSearchStats {
  /// Candidate placements the search considered (Eq. 5), pruned or not.
  int64_t candidates_evaluated = 0;
  /// Of those, candidates settled by the exact lower bound without being
  /// applied: their score provably exceeds the incumbent best, so they
  /// could never have been adopted.
  int64_t candidates_pruned = 0;
  /// 8-norm plan score of the incumbent placement.
  double score_before = 0.0;
  /// Best candidate score found (== score_before when nothing was scored).
  double best_score = 0.0;
  /// True iff the returned plan is non-empty (the best candidate cleared
  /// the min_improvement_frac threshold).
  bool accepted = false;
};

/// \brief Implements Algorithm 2 plus background migration planning.
class PolicyMaker {
 public:
  /// Experts considered for expansion per plan, hottest first (and cold
  /// experts for shrinking, coldest first). Evaluating a few near-ties
  /// instead of only the argmax (the paper's literal Alg. 2) prevents
  /// stalls when two hot experts bottleneck different GPUs.
  static constexpr int kMaxHotCandidates = 3;
  /// Improvement (seconds) a migration must deliver to be emitted.
  static constexpr double kMinMigrationGainSec = 1e-5;

  PolicyMaker(const CostModel* cost_model, const PolicyMakerOptions& options);

  /// Installs the dynamic-membership view (nullable). With health set, the
  /// planner never expands or migrates onto dead or degraded devices, and
  /// prefers shrinking replicas that sit on degraded devices.
  void SetClusterHealth(const ClusterHealth* health) { health_ = health; }

  /// One Expand/Shrink round (Algorithm 2). Returns ops in dependency order
  /// (Shrink first when it frees the slot the Expand consumes); empty if no
  /// beneficial modification exists. `stats` (nullable) receives the
  /// search's audit record. Resets the planner's private LayerCostState
  /// and delegates to PlanOnState.
  std::vector<ModOp> MakeSchedulingPlan(const Assignment& assignment,
                                        const Placement& placement,
                                        PlanSearchStats* stats = nullptr) const;

  /// MakeSchedulingPlan against an already-initialized incremental state —
  /// the O(Δ) path. The caller owns `state` and keeps it live across plan
  /// rounds by Apply-ing the accepted ops (see Scheduler::OnStep); the
  /// search itself returns the state at its entry depth. `state` must have
  /// been constructed with include_sync matching this planner's objective.
  std::vector<ModOp> PlanOnState(LayerCostState* state,
                                 PlanSearchStats* stats = nullptr) const;

  /// Background migration planning (Algorithm 1 line 9): up to `max_moves`
  /// vExpert swaps that lower the total estimated synchronization cost by
  /// consolidating replica groups onto fewer nodes.
  std::vector<ModOp> PlanMigrations(const Placement& placement,
                                    int max_moves) const;

  /// Migrate-away planning: up to `max_moves` ops that move vExpert
  /// capacity off degraded (straggler) devices — Shrinks when the expert
  /// holds capacity elsewhere, an Expand onto a healthy device when the
  /// straggler hosts the sole replica (the matching Shrink follows on a
  /// later trigger, once the copy is live). Empty without health or when
  /// nothing is degraded.
  std::vector<ModOp> PlanEvacuation(const Placement& placement,
                                    int max_moves) const;

  /// Total Eq. 9 sync seconds across all experts (migration objective).
  double TotalSyncSeconds(const Placement& placement) const;

  const CostModel* cost_model() const { return cost_model_; }
  const PolicyMakerOptions& options() const { return options_; }

 private:
  /// True when `g` may receive new vExperts.
  bool Expandable(GpuId g) const;

  const CostModel* cost_model_;
  PolicyMakerOptions options_;
  const ClusterHealth* health_ = nullptr;
  /// Scratch state backing the convenience MakeSchedulingPlan overload
  /// (reused across calls so steady-state planning reuses allocations).
  mutable LayerCostState scratch_state_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_CORE_POLICY_MAKER_H_
