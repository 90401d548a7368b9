#include "core/flexmoe.h"

#include <algorithm>

#include "core/balance.h"

namespace flexmoe {

namespace {

/// Resync threshold: if a layer's pending-op queue exceeds this, stale
/// plans are dropped and the target placement resyncs to the live one.
constexpr size_t kMaxPendingOps = 64;

}  // namespace

Status FlexMoEOptions::Validate() const {
  FLEXMOE_RETURN_IF_ERROR(model.Validate());
  if (num_gpus <= 0) return Status::InvalidArgument("num_gpus <= 0");
  FLEXMOE_RETURN_IF_ERROR(scheduler.Validate());
  FLEXMOE_RETURN_IF_ERROR(policy.Validate());
  FLEXMOE_RETURN_IF_ERROR(pipeline.Validate());
  return Status::OK();
}

Result<std::unique_ptr<FlexMoESystem>> FlexMoESystem::Create(
    const FlexMoEOptions& options, const Topology* topo,
    const HardwareProfile* profile) {
  FLEXMOE_CHECK(topo != nullptr && profile != nullptr);
  FLEXMOE_RETURN_IF_ERROR(options.Validate());
  if (topo->num_gpus() != options.num_gpus) {
    return Status::InvalidArgument("topology GPU count mismatch");
  }

  PlacementOptions popt;
  popt.num_experts = options.model.num_experts;
  popt.num_gpus = options.num_gpus;
  popt.slots_per_gpu = options.slots_per_gpu;
  std::vector<Placement> initial;
  initial.reserve(static_cast<size_t>(options.model.num_moe_layers));
  for (int l = 0; l < options.model.num_moe_layers; ++l) {
    FLEXMOE_ASSIGN_OR_RETURN(Placement p, Placement::ExpertParallel(popt));
    initial.push_back(std::move(p));
  }
  FLEXMOE_ASSIGN_OR_RETURN(NcclGroupCache cache,
                           NcclGroupCache::Create(NcclGroupCache::Options{}));

  return std::unique_ptr<FlexMoESystem>(new FlexMoESystem(
      options, topo, profile, std::move(cache), std::move(initial)));
}

FlexMoESystem::FlexMoESystem(const FlexMoEOptions& options,
                             const Topology* topo,
                             const HardwareProfile* profile,
                             NcclGroupCache group_cache,
                             std::vector<Placement> initial)
    : options_(options),
      topo_(topo),
      profile_(profile),
      cluster_(topo),
      elastic_(options.num_gpus, topo, RepairMode::kDrain),
      cost_model_(profile, ShapeFromModel(options.model)),
      policy_maker_(&cost_model_, options.policy),
      scheduler_(&policy_maker_, options.scheduler),
      group_cache_(std::move(group_cache)),
      step_executor_(&cluster_, profile, options.model),
      live_(initial),
      target_(std::move(initial)) {
  executors_.reserve(live_.size());
  for (size_t l = 0; l < live_.size(); ++l) {
    executors_.emplace_back(options_.executor, profile_,
                            options_.model.expert_state_bytes());
  }
  next_plan_step_.assign(live_.size(), 0);
  plan_backoff_.assign(live_.size(), 1);
  layer_chunks_.assign(live_.size(), 0);
  policy_maker_.SetClusterHealth(&elastic_.health());
  scheduler_.SetClusterHealth(&elastic_.health());
  step_executor_.set_cluster_health(&elastic_.health());
  step_executor_.set_pipeline(options.pipeline);
  // Placement planning always scores at K = 1 (the cost model holds no
  // depth of its own), whatever depth the executor runs: scoring at the
  // executed depth divides the wire terms by K, which compresses
  // inter-GPU differences and couples the balance objective to a knob
  // whose measured execution effect is sub-percent while its scoring
  // effect perturbs the plan trajectory by several percent. Chunk depth
  // is planned separately, AFTER placement, from the same partial sums
  // (BestChunkDepth — DESIGN.md §12.2).
}

Status FlexMoESystem::InstallFaultPlan(const FaultPlan& plan) {
  return elastic_.InstallPlan(plan);
}

void FlexMoESystem::SetObservability(obs::Observability* obs) {
  obs_ = obs;
  step_executor_.set_observability(obs);
  elastic_.SetObservability(obs);
  if (obs::Tracer* tr = obs::TracerOf(obs); tr != nullptr) {
    tr->set_num_gpus(options_.num_gpus);
  }
}

const Placement& FlexMoESystem::live_placement(int layer) const {
  FLEXMOE_CHECK(layer >= 0 && layer < static_cast<int>(live_.size()));
  return live_[static_cast<size_t>(layer)];
}

const Placement& FlexMoESystem::target_placement(int layer) const {
  FLEXMOE_CHECK(layer >= 0 && layer < static_cast<int>(target_.size()));
  return target_[static_cast<size_t>(layer)];
}

StepMetrics FlexMoESystem::RunStep(
    const std::vector<Assignment>& layer_assignments) {
  return RunStepImpl(layer_assignments, /*serving=*/false);
}

StepMetrics FlexMoESystem::ServeMicrobatch(
    const std::vector<Assignment>& layer_assignments) {
  return RunStepImpl(layer_assignments, /*serving=*/true);
}

StepMetrics FlexMoESystem::RunStepImpl(
    const std::vector<Assignment>& layer_assignments, bool serving) {
  FLEXMOE_CHECK(static_cast<int>(layer_assignments.size()) ==
                options_.model.num_moe_layers);
  const int num_layers = static_cast<int>(layer_assignments.size());
  StepMetrics metrics;
  metrics.step = step_;

  // 0. Elastic boundary: fire due cluster events, drain placements off
  //    departed devices, invalidate their NCCL groups. A membership change
  //    obsoletes every queued plan — pending ops are dropped and the
  //    targets resync to the repaired live placements.
  ElasticController::StepReport fault_report;
  if (elastic_.active()) {
    std::vector<Placement*> live_ptrs;
    live_ptrs.reserve(live_.size());
    for (Placement& p : live_) live_ptrs.push_back(&p);
    fault_report = elastic_.OnStepBoundary(
        step_, live_ptrs, &group_cache_, options_.model.expert_state_bytes());
    if (fault_report.membership_changed) {
      for (size_t l = 0; l < live_.size(); ++l) {
        executors_[l].ClearPending();
        for (const FaultEvent& e : fault_report.events) {
          if (e.type == FaultType::kFailStop || e.type == FaultType::kLeave) {
            executors_[l].DropOpsInvolving(e.gpu);
          }
        }
        target_[l] = live_[l];
      }
    }
    if (fault_report.membership_changed || fault_report.perf_changed) {
      next_plan_step_.assign(live_.size(), 0);
      plan_backoff_.assign(live_.size(), 1);
      // The depth that overlapped best on the old membership need not on
      // the new one — re-pick from the repaired placements this step.
      layer_chunks_.assign(live_.size(), 0);
    }
    metrics.faults_applied = static_cast<int>(fault_report.events.size());
    metrics.recovery_seconds = fault_report.recovery_seconds;
    // Degraded mode is a state, not an event: flag every step on which
    // some expert has no replica on a live device.
    if (!elastic_.health().AllHealthy()) {
      for (const Placement& p : live_) {
        if (ExpertsWithoutLiveReplica(p, elastic_.health()) > 0) {
          metrics.degraded = true;
          break;
        }
      }
    }
  }

  // The assignments the system actually trains on this step: sources on
  // departed devices re-shard onto survivors; tokens resident on a device
  // that just fail-stopped are lost.
  std::vector<Assignment> adjusted;
  const std::vector<Assignment>* effective = &layer_assignments;
  if (elastic_.NeedsAssignmentAdjustment()) {
    adjusted.reserve(layer_assignments.size());
    for (const Assignment& a : layer_assignments) {
      adjusted.push_back(elastic_.AdjustAssignment(a, &metrics.tokens_dropped));
    }
    effective = &adjusted;
  }

  // 1. Step boundary: completed background adjustments take effect on the
  //    live placements; the next batches launch best-effort.
  double boundary = step_executor_.Frontier();
  double blocking = fault_report.recovery_seconds;
  for (int l = 0; l < num_layers; ++l) {
    const PlacementExecutor::TickResult tick =
        executors_[static_cast<size_t>(l)].OnStepBoundary(
            boundary, &cluster_, &live_[static_cast<size_t>(l)],
            elastic_.active() ? &elastic_.health() : nullptr);
    metrics.ops_applied += tick.ops_applied;
    metrics.ops_launched += tick.ops_launched;
    blocking += tick.blocking_seconds;
  }
  if (blocking > 0.0) {
    cluster_.BlockAll(boundary, blocking);
    metrics.adjust_block_seconds = blocking;
  }
  if (obs::Tracer* tr = obs::TracerOf(obs_); tr != nullptr) {
    for (const FaultEvent& e : fault_report.events) {
      tr->Instant("fault_event", "recovery", obs::kControlLane, boundary,
                  "gpu", static_cast<double>(e.gpu));
    }
    if (blocking > 0.0) {
      tr->Span("recovery_block", "recovery", obs::kControlLane, boundary,
               boundary + blocking, "faults",
               static_cast<double>(fault_report.events.size()));
    }
  }

  // 1b. (training only) Pre-warm NCCL groups for the live placements —
  //     serving runs no replica collectives, so there is nothing to warm.
  //     Communicator
  //     bootstrap is host-side (CPU + sockets) work that overlaps with GPU
  //     execution and with the copy engines, so it costs nothing on either
  //     the training critical path or the background copy streams; the
  //     step executor below then always hits the warm cache. The LRU cache
  //     statistics still expose creation churn.
  const bool prune_dead_groups =
      elastic_.active() && elastic_.health().AnyDead();
  if (!serving) {
    for (const Placement& placement : live_) {
      for (int e = 0; e < placement.num_experts(); ++e) {
        std::vector<GpuId> group = placement.HostGpus(e);
        if (prune_dead_groups) {
          // Never bootstrap a communicator around a departed rank (only an
          // orphan's tombstone replica can put one in a group).
          group.erase(std::remove_if(group.begin(), group.end(),
                                     [this](GpuId g) {
                                       return !elastic_.health().alive(g);
                                     }),
                      group.end());
        }
        if (group.size() >= 2) group_cache_.Acquire(group);
      }
    }
  }

  // 2. Route every layer on its live placement.
  std::vector<RoutedAssignment> routed;
  routed.reserve(static_cast<size_t>(num_layers));
  double balance_sum = 0.0;
  for (int l = 0; l < num_layers; ++l) {
    routed.push_back(FlexibleRouter::Route(
        (*effective)[static_cast<size_t>(l)],
        live_[static_cast<size_t>(l)]));
    balance_sum += BalanceRatio(routed.back().PerGpuComputeLoads());
    metrics.tokens_total += routed.back().Total();
  }
  metrics.tokens_total += metrics.tokens_dropped;  // lost-in-flight tokens
  metrics.balance_ratio = balance_sum / num_layers;

  // 3. Execute the step on the event engine. Under auto-K each layer runs
  //    at its planned chunk depth; a layer that has never been planned
  //    (step 0, or the step after a membership change reset) picks its
  //    initial depth directly from this step's routed workload, so no step
  //    falls back to serial while waiting for a scheduler trigger.
  const bool auto_chunks = options_.pipeline.chunks == 0;
  std::vector<LayerWork> work(static_cast<size_t>(num_layers));
  for (int l = 0; l < num_layers; ++l) {
    work[static_cast<size_t>(l)].routed = &routed[static_cast<size_t>(l)];
    work[static_cast<size_t>(l)].placement = &live_[static_cast<size_t>(l)];
    if (auto_chunks) {
      int& chunks = layer_chunks_[static_cast<size_t>(l)];
      if (chunks == 0) {
        const LayerCostEstimate est = cost_model_.EstimateLayer(
            routed[static_cast<size_t>(l)], live_[static_cast<size_t>(l)],
            /*include_sync=*/!policy_maker_.options().serve_objective);
        chunks = cost_model_.BestChunkDepth(est.per_gpu_compute,
                                            est.per_gpu_a2a, est.per_gpu_sync);
      }
      work[static_cast<size_t>(l)].chunks = chunks;
    }
  }
  const StepTiming timing =
      serving ? step_executor_.ExecuteForward(work)
              : step_executor_.ExecuteStep(work, &group_cache_);

  // Efficiency is relative to the devices that exist: departed GPUs are
  // lost capacity, not inefficiency.
  MetricsFromTiming(timing, blocking,
                    elastic_.active() ? elastic_.health().num_alive() : 0,
                    &metrics);
  // FlexMoE never drops tokens by capacity; the only losses are tokens
  // resident on a device at the instant it fail-stopped.
  metrics.token_efficiency =
      metrics.tokens_total > 0
          ? static_cast<double>(metrics.tokens_total - metrics.tokens_dropped) /
                static_cast<double>(metrics.tokens_total)
          : 1.0;

  // 4. Scheduler: monitor this step's workloads, plan modifications on the
  //    target placements, enqueue them for best-effort execution. Planning
  //    happens against the target (which already reflects queued ops), so
  //    it can track workload drift every step; the pending-op cap guards
  //    against plans outrunning the background streams (stale tail is
  //    dropped and the target resyncs to the live state).
  for (int l = 0; l < num_layers; ++l) {
    auto& executor = executors_[static_cast<size_t>(l)];
    if (executor.pending_ops() > kMaxPendingOps) {
      executor.ClearPending();
      target_[static_cast<size_t>(l)] = live_[static_cast<size_t>(l)];
      continue;  // re-plan from the fresh state next step
    }
    if (step_ < next_plan_step_[static_cast<size_t>(l)]) continue;
    const bool force_trigger =
        fault_report.membership_changed || fault_report.perf_changed;
    // The layer's current depth — including the provisional step-0 pick,
    // which the same selection rule produced — anchors the scheduler's
    // retention hysteresis.
    const int chunk_incumbent =
        auto_chunks ? layer_chunks_[static_cast<size_t>(l)] : 0;
    const SchedulerDecision decision = scheduler_.OnStep(
        step_, (*effective)[static_cast<size_t>(l)],
        &target_[static_cast<size_t>(l)], force_trigger, chunk_incumbent);
    if (auto_chunks && decision.pipeline_chunks > 0) {
      layer_chunks_[static_cast<size_t>(l)] = decision.pipeline_chunks;
    }
    if (!decision.ops.empty()) {
      executor.Enqueue(decision.ops);
    }
    // Audit trail: one record per scheduler invocation (steps skipped by
    // the backoff produce none — the gap IS part of the measured policy
    // lag).
    if (obs::DecisionLog* dl = obs::DecisionsOf(obs_); dl != nullptr) {
      obs::PolicyDecisionRecord rec;
      rec.step = step_;
      rec.layer = l;
      rec.trigger_metric = decision.metric_before;
      rec.threshold = scheduler_.options().metric == TriggerMetric::kMaxRatio
                          ? scheduler_.options().threshold
                          : scheduler_.options().variance_threshold;
      rec.forced = force_trigger;
      rec.triggered = decision.triggered;
      rec.candidates_evaluated = decision.candidates_evaluated;
      rec.plan_rounds = decision.plan_rounds;
      rec.migrations = decision.migrations;
      rec.evacuations = decision.evacuations;
      rec.ops_emitted = static_cast<int>(decision.ops.size());
      rec.est_score_before = decision.est_score_before;
      rec.est_score_after = decision.est_score_after;
      rec.metric_after = decision.metric_after;
      rec.realized_balance = metrics.balance_ratio;
      for (const ModOp& op : decision.ops) {
        if (!rec.ops.empty()) rec.ops += ';';
        rec.ops += op.ToString();
      }
      dl->Add(std::move(rec));
    }
    if (obs::Tracer* tr = obs::TracerOf(obs_);
        tr != nullptr && decision.triggered) {
      tr->Instant("policy_decision", "policy", obs::kPolicyLane, timing.end,
                  "ops", static_cast<double>(decision.ops.size()));
    }
    if (obs::MetricsRegistry* m = obs::MetricsOf(obs_); m != nullptr) {
      m->Add("policy.invocations");
      if (decision.triggered) m->Add("policy.triggers");
      if (decision.candidates_evaluated > 0) {
        m->Add("policy.candidates_evaluated", decision.candidates_evaluated);
      }
      if (decision.candidates_pruned > 0) {
        m->Add("policy.candidates_pruned", decision.candidates_pruned);
      }
      if (decision.plan_rounds > 0) {
        m->Add("policy.plan_rounds", decision.plan_rounds);
      }
      if (!decision.ops.empty()) {
        m->Add("policy.ops_enqueued",
               static_cast<int64_t>(decision.ops.size()));
      }
      if (decision.migrations > 0) {
        m->Add("policy.migrations", decision.migrations);
      }
      if (decision.evacuations > 0) {
        m->Add("policy.evacuations", decision.evacuations);
      }
    }
    // Backoff: a trigger that found no beneficial modification means the
    // placement is at its feasibility floor for this workload; searching
    // again next step would find the same answer.
    auto& backoff = plan_backoff_[static_cast<size_t>(l)];
    if (decision.triggered && decision.plan_rounds == 0) {
      next_plan_step_[static_cast<size_t>(l)] = step_ + backoff;
      backoff = std::min(backoff * 2, 16);
    } else {
      backoff = 1;
    }
  }

  RecordStepObservability(obs_, serving, metrics);
  ++step_;
  stats_.Add(metrics);
  return metrics;
}

}  // namespace flexmoe
