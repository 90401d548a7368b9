#include "core/scheduler.h"

#include <cmath>

#include "core/balance.h"

namespace flexmoe {

const char* TriggerMetricName(TriggerMetric m) {
  switch (m) {
    case TriggerMetric::kMaxRatio:
      return "Max";
    case TriggerMetric::kVariance:
      return "Variance";
  }
  return "?";
}

const char* TriggerPolicyName(TriggerPolicy p) {
  switch (p) {
    case TriggerPolicy::kDynamic:
      return "Dynamic";
    case TriggerPolicy::kStaticInterval:
      return "StaticInterval";
  }
  return "?";
}

Status SchedulerOptions::Validate() const {
  if (!std::isfinite(threshold) || threshold < 1.0) {
    return Status::InvalidArgument(
        "balance-ratio threshold must be finite and >= 1");
  }
  if (!std::isfinite(variance_threshold) || variance_threshold < 0.0) {
    return Status::InvalidArgument(
        "variance_threshold must be finite and >= 0");
  }
  if (static_interval_steps <= 0) {
    return Status::InvalidArgument("static_interval_steps must be > 0");
  }
  if (max_plan_iterations <= 0) {
    return Status::InvalidArgument("max_plan_iterations must be > 0");
  }
  if (max_migrations < 0) {
    return Status::InvalidArgument("max_migrations must be >= 0");
  }
  return Status::OK();
}

namespace {

/// Migrate-away ops planned per trigger while some device is degraded.
constexpr int kMaxEvacuations = 8;

const CostModel* CostModelOf(const PolicyMaker* policy_maker) {
  FLEXMOE_CHECK(policy_maker != nullptr);
  return policy_maker->cost_model();
}

}  // namespace

Scheduler::Scheduler(const PolicyMaker* policy_maker,
                     const SchedulerOptions& options)
    : policy_maker_(policy_maker),
      options_(options),
      plan_state_(CostModelOf(policy_maker),
                  !policy_maker->options().serve_objective) {
  FLEXMOE_CHECK_OK(options.Validate());
}

double Scheduler::MetricFromTokens(
    const std::vector<int64_t>& tokens) const {
  loads_scratch_.resize(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    loads_scratch_[i] = static_cast<double>(tokens[i]);
  }
  switch (options_.metric) {
    case TriggerMetric::kMaxRatio:
      return BalanceRatio(loads_scratch_);
    case TriggerMetric::kVariance:
      return BalanceVariance(loads_scratch_);
  }
  return 0.0;
}

double Scheduler::MetricOf(const Assignment& assignment,
                           const Placement& placement) const {
  FlexibleRouter::RouteInto(assignment, placement, &metric_scratch_);
  metric_scratch_.PerGpuComputeTokensInto(&tokens_scratch_);
  return MetricFromTokens(tokens_scratch_);
}

bool Scheduler::ShouldTrigger(int64_t step, double metric_value) const {
  if (options_.policy == TriggerPolicy::kStaticInterval) {
    return step % options_.static_interval_steps == 0;
  }
  const double threshold = options_.metric == TriggerMetric::kMaxRatio
                               ? options_.threshold
                               : options_.variance_threshold;
  return metric_value > threshold;
}

SchedulerDecision Scheduler::OnStep(int64_t step,
                                    const Assignment& assignment,
                                    Placement* target, bool force_trigger,
                                    int chunk_incumbent) {
  FLEXMOE_CHECK(target != nullptr);
  SchedulerDecision decision;
  // The invocation's one routing walk: the trigger metric reads its loads,
  // and a plan loop builds its costs on the same walk.
  plan_state_.Route(assignment, *target);
  plan_state_.routed().PerGpuComputeTokensInto(&tokens_scratch_);
  decision.metric_before = MetricFromTokens(tokens_scratch_);
  decision.metric_after = decision.metric_before;

  // Capacity-change trigger: any health transition since the last
  // invocation (device lost, straggler appeared or recovered, device
  // joined) forces re-planning — the placement that balanced the old
  // cluster does not balance the new one. The trigger is remembered for
  // the whole step, because one Scheduler serves every MoE layer and each
  // layer's OnStep call must see it.
  bool capacity_changed = false;
  if (health_ != nullptr) {
    if (health_->version() != last_health_version_) {
      last_health_version_ = health_->version();
      capacity_trigger_step_ = step;
    }
    capacity_changed = step == capacity_trigger_step_;
  }
  if (!force_trigger && !capacity_changed &&
      !ShouldTrigger(step, decision.metric_before)) {
    return decision;
  }

  decision.triggered = true;

  // Migrate-away first: vExpert capacity parked on degraded devices
  // throttles every expert partition that includes it, so evacuation
  // precedes balance planning.
  if (health_ != nullptr && health_->AnyDegraded()) {
    const std::vector<ModOp> evac =
        policy_maker_->PlanEvacuation(*target, kMaxEvacuations);
    for (const ModOp& op : evac) {
      FLEXMOE_CHECK_OK(ApplyOp(op, target));
      decision.ops.push_back(op);
      ++decision.evacuations;
    }
  }

  // One cost build per trigger (lazily, so a trigger that never needs the
  // costs pays nothing); every later round and candidate runs O(Δ) on the
  // incremental state. The walk above is reused unless evacuation moved
  // the target since.
  bool state_ready = false;
  const auto ensure_costs = [&]() {
    if (state_ready) return;
    if (decision.evacuations > 0) {
      plan_state_.Reset(assignment, *target);
    } else {
      plan_state_.BuildCosts();
    }
    state_ready = true;
  };

  // Algorithm 1 lines 3-8: iterate Expand/Shrink planning while the metric
  // stays above threshold and the Policy Maker keeps finding improvements.
  const double stop_threshold = options_.metric == TriggerMetric::kMaxRatio
                                    ? options_.threshold
                                    : options_.variance_threshold;
  double metric = decision.metric_before;
  for (int round = 0; round < options_.max_plan_iterations; ++round) {
    if (options_.policy == TriggerPolicy::kDynamic &&
        metric <= stop_threshold) {
      break;
    }
    ensure_costs();
    PlanSearchStats stats;
    const std::vector<ModOp> plan =
        policy_maker_->PlanOnState(&plan_state_, &stats);
    decision.candidates_evaluated += stats.candidates_evaluated;
    decision.candidates_pruned += stats.candidates_pruned;
    if (round == 0) {
      decision.est_score_before = stats.score_before;
      decision.est_score_after = stats.score_before;
    }
    if (plan.empty()) break;  // Algorithm 1 lines 5-6
    decision.est_score_after = stats.best_score;
    for (const ModOp& op : plan) {
      FLEXMOE_CHECK_OK(ApplyOp(op, target));
      FLEXMOE_CHECK(plan_state_.Apply(op));
      decision.ops.push_back(op);
    }
    ++decision.plan_rounds;
    // The state's integer loads ARE the loads a fresh route of the updated
    // target would produce, so the round metric needs no re-route.
    metric = MetricFromTokens(plan_state_.per_gpu_compute_tokens());
  }
  decision.metric_after = metric;

  // Auto-K: recommend the chunk depth that minimizes the overhead-honest
  // Eq. 5 estimate of the placement the plan loop just produced. Reuses
  // the plan loop's incremental state when a round ran; a trigger that
  // never reached the loop (dynamic policy already under threshold) pays
  // the one cost build here — still once per trigger, never per step.
  if (chunk_incumbent > 0) {
    ensure_costs();
    decision.pipeline_chunks = plan_state_.BestChunkDepth(chunk_incumbent);
  }

  // Algorithm 1 line 9: background Migrations.
  if (options_.max_migrations > 0) {
    const std::vector<ModOp> migrations =
        policy_maker_->PlanMigrations(*target, options_.max_migrations);
    for (const ModOp& op : migrations) {
      FLEXMOE_CHECK_OK(ApplyOp(op, target));
      decision.ops.push_back(op);
      ++decision.migrations;
    }
  }
  return decision;
}

}  // namespace flexmoe
