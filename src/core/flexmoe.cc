#include "core/flexmoe.h"

#include <algorithm>
#include <system_error>
#include <utility>

#include "core/balance.h"
#include "util/thread_budget.h"

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
  FLEXMOE_RETURN_IF_ERROR(CheckCreate(options, topo, profile));

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
    : SystemFrame(topo, profile, options.model, RepairMode::kDrain,
                  options.pipeline),
      options_(options),
      cost_model_(profile, ShapeFromModel(options.model)),
      policy_maker_(&cost_model_, options.policy),
      group_cache_(std::move(group_cache)),
      live_(initial),
      target_(std::move(initial)) {
  policy_maker_.SetClusterHealth(&elastic_.health());
  executors_.reserve(live_.size());
  schedulers_.reserve(live_.size());
  for (size_t l = 0; l < live_.size(); ++l) {
    executors_.emplace_back(options_.executor, profile_,
                            options_.model.expert_state_bytes());
    schedulers_.emplace_back(&policy_maker_, options_.scheduler);
    schedulers_.back().SetClusterHealth(&elastic_.health());
  }
  next_plan_step_.assign(live_.size(), 0);
  plan_backoff_.assign(live_.size(), 1);
  layer_chunks_.assign(live_.size(), 0);
  // Placement planning always scores at K = 1 (the cost model holds no
  // depth of its own), whatever depth the executor runs: scoring at the
  // executed depth divides the wire terms by K, which compresses
  // inter-GPU differences and couples the balance objective to a knob
  // whose measured execution effect is sub-percent while its scoring
  // effect perturbs the plan trajectory by several percent. Chunk depth
  // is planned separately, AFTER placement, from the same partial sums
  // (BestChunkDepth — DESIGN.md §12.2).
}

FlexMoESystem::~FlexMoESystem() {
  if (!helper_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(helper_mu_);
    helper_stop_ = true;
  }
  helper_cv_.notify_one();
  helper_.join();
}

const Placement& FlexMoESystem::live_placement(int layer) const {
  FLEXMOE_CHECK(layer >= 0 && layer < static_cast<int>(live_.size()));
  return live_[static_cast<size_t>(layer)];
}

const Placement& FlexMoESystem::target_placement(int layer) const {
  FLEXMOE_CHECK(layer >= 0 && layer < static_cast<int>(target_.size()));
  return target_[static_cast<size_t>(layer)];
}

StepMetrics FlexMoESystem::Step(
    const std::vector<Assignment>& layer_assignments, bool serving) {
  const int num_layers = static_cast<int>(layer_assignments.size());
  StepMetrics metrics;

  // 0. Elastic boundary: fire due cluster events, drain placements off
  //    departed devices, invalidate their NCCL groups. A membership change
  //    obsoletes every queued plan — pending ops are dropped and the
  //    targets resync to the repaired live placements.
  Boundary boundary =
      OpenStep(live_.data(), live_.size(), &group_cache_, &metrics);
  const ElasticController::StepReport& fault_report = boundary.faults;
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

  // The assignments the system actually trains on this step: sources on
  // departed devices re-shard onto survivors; tokens resident on a device
  // that just fail-stopped are lost.
  std::vector<Assignment> resharded;
  const std::vector<Assignment>& effective =
      Reshard(layer_assignments, &resharded, &metrics);

  // 1. Step boundary: completed background adjustments take effect on the
  //    live placements; the next batches launch best-effort. A blocking
  //    executor's transfers add to the recovery the step waits on.
  for (int l = 0; l < num_layers; ++l) {
    const PlacementExecutor::TickResult tick =
        executors_[static_cast<size_t>(l)].OnStepBoundary(
            boundary.time, &cluster_, &live_[static_cast<size_t>(l)],
            &elastic_.health());
    metrics.ops_applied += tick.ops_applied;
    metrics.ops_launched += tick.ops_launched;
    metrics.adjust_block_seconds += tick.blocking_seconds;
    boundary.blocking += tick.blocking_seconds;
  }
  ChargeBoundary(boundary);

  // 2. Route every layer on its live placement.
  std::vector<RoutedAssignment> routed;
  routed.reserve(static_cast<size_t>(num_layers));
  double balance_sum = 0.0;
  for (int l = 0; l < num_layers; ++l) {
    routed.push_back(FlexibleRouter::Route(
        effective[static_cast<size_t>(l)],
        live_[static_cast<size_t>(l)]));
    balance_sum += BalanceRatio(routed.back().PerGpuComputeLoads());
    metrics.tokens_total += routed.back().Total();
  }
  metrics.tokens_total += metrics.tokens_dropped;  // lost-in-flight tokens
  metrics.balance_ratio = balance_sum / num_layers;

  // 3. Work for the engine. Under auto-K each layer runs at its planned
  //    chunk depth; a layer that has never been planned (step 0, or the
  //    step after a membership change reset) picks its initial depth
  //    directly from this step's routed workload, so no step falls back
  //    to serial while waiting for a scheduler trigger.
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

  // 4. The layers that plan this step, in layer order. The pending-op cap
  //    guards against plans outrunning the background streams: a layer
  //    over it drops its stale tail, resyncs its target to the live state
  //    and re-plans from the fresh state next step. The backoff skips a
  //    layer whose last trigger found nothing to do.
  plan_.step = step_;
  plan_.assignments = &effective;
  plan_.layers.clear();
  plan_.chunk_incumbents.clear();
  for (int l = 0; l < num_layers; ++l) {
    auto& executor = executors_[static_cast<size_t>(l)];
    if (executor.pending_ops() > kMaxPendingOps) {
      executor.ClearPending();
      target_[static_cast<size_t>(l)] = live_[static_cast<size_t>(l)];
      continue;
    }
    if (step_ < next_plan_step_[static_cast<size_t>(l)]) continue;
    plan_.layers.push_back(l);
    // The layer's current depth — including the provisional step-0 pick,
    // which the same selection rule produced — anchors the scheduler's
    // retention hysteresis.
    plan_.chunk_incumbents.push_back(
        auto_chunks ? layer_chunks_[static_cast<size_t>(l)] : 0);
  }
  plan_.decisions.resize(plan_.layers.size());
  // The capacity trigger is polled once per step on which some layer
  // plans, and a health change forces every planning layer.
  const bool force_trigger =
      fault_report.membership_changed || fault_report.perf_changed;
  const bool capacity_changed =
      !plan_.layers.empty() && capacity_trigger_.Poll(elastic_.health());
  plan_.force_trigger = force_trigger || capacity_changed;
  next_plan_.store(0, std::memory_order_relaxed);

  // 5. Post the plan job. The scheduler (Algorithm 1 against each layer's
  //    target placement, which already reflects queued ops, so it tracks
  //    workload drift every step) plans beside steps 6 and 7: it reads only
  //    this step's assignments, the targets and the incumbent depths, none
  //    of which they touch. The helper, if it runs, takes layers from the
  //    start; the caller takes what is left once the engine is done.
  if (plan_.layers.size() >= 2 && !helper_.joinable()) MaybeStartHelper();
  if (helper_.joinable() && !plan_.layers.empty()) {
    {
      std::lock_guard<std::mutex> lock(helper_mu_);
      job_pending_ = true;
    }
    helper_cv_.notify_one();
  }
  // 6. (training only) Pre-warm NCCL groups for the live placements —
  //    serving runs no replica collectives, so there is nothing to warm.
  //    Communicator bootstrap is host-side (CPU + sockets) work that
  //    overlaps with GPU execution and with the copy engines, so it costs
  //    nothing on either the training critical path or the background copy
  //    streams; the step executor below then always hits the warm cache.
  //    The LRU cache statistics still expose creation churn. Done after
  //    the plan job is posted, so the helper starts planning meanwhile.
  const bool prune_dead_groups = elastic_.health().AnyDead();
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

  // 7. Execute the step on the event engine, then plan the layers the
  //    helper has not taken.
  StepTiming timing;
  {
    // Joins the helper on every exit, unwinding included: its job reads
    // this frame's assignments.
    struct JoinHelper {
      FlexMoESystem* system;
      ~JoinHelper() { system->WaitForHelper(); }
    } join{this};
    timing = serving ? step_executor_.ExecuteForward(work)
                     : step_executor_.ExecuteStep(work, &group_cache_);
    PlanLayers();
  }
  if (helper_failure_) {
    std::rethrow_exception(std::exchange(helper_failure_, nullptr));
  }

  // 8. Apply the decisions in layer order: depth, enqueue for best-effort
  //    execution, audit, backoff.
  for (size_t i = 0; i < plan_.layers.size(); ++i) {
    const int l = plan_.layers[i];
    const SchedulerDecision& decision = plan_.decisions[i];
    if (auto_chunks && decision.pipeline_chunks > 0) {
      layer_chunks_[static_cast<size_t>(l)] = decision.pipeline_chunks;
    }
    if (!decision.ops.empty()) {
      executors_[static_cast<size_t>(l)].Enqueue(decision.ops);
    }
    // Audit trail: one record per scheduler invocation (steps skipped by
    // the backoff produce none — the gap IS part of the measured policy
    // lag).
    if (obs::DecisionLog* dl = obs::DecisionsOf(obs_); dl != nullptr) {
      obs::PolicyDecisionRecord rec;
      rec.step = step_;
      rec.layer = l;
      rec.trigger_metric = decision.metric_before;
      rec.threshold = options_.scheduler.metric == TriggerMetric::kMaxRatio
                          ? options_.scheduler.threshold
                          : options_.scheduler.variance_threshold;
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

  // FlexMoE never drops tokens by capacity nor re-assigns them; the only
  // losses are tokens resident on a device at the instant it fail-stopped.
  return CloseStep(timing, boundary.blocking, /*reassigned=*/0, serving,
                   &metrics);
}

void FlexMoESystem::PlanLayers() {
  const size_t count = plan_.layers.size();
  for (size_t i = next_plan_.fetch_add(1, std::memory_order_relaxed);
       i < count; i = next_plan_.fetch_add(1, std::memory_order_relaxed)) {
    const size_t l = static_cast<size_t>(plan_.layers[i]);
    plan_.decisions[i] = schedulers_[l].OnStep(
        plan_.step, (*plan_.assignments)[l], &target_[l], plan_.force_trigger,
        plan_.chunk_incumbents[i]);
  }
}

void FlexMoESystem::MaybeStartHelper() {
  if (!TryClaimThread()) return;
  try {
    helper_ = std::thread(&FlexMoESystem::HelperMain, this);
  } catch (const std::system_error&) {
    ReleaseThreads(1);  // no thread to run it on: the layers plan inline
  }
}

void FlexMoESystem::HelperMain() {
  std::unique_lock<std::mutex> lock(helper_mu_);
  while (true) {
    helper_cv_.wait(lock, [this] { return helper_stop_ || job_pending_; });
    if (helper_stop_) break;
    lock.unlock();
    std::exception_ptr failure;
    try {
      PlanLayers();
    } catch (...) {
      failure = std::current_exception();
    }
    lock.lock();
    helper_failure_ = failure;
    job_pending_ = false;
    done_cv_.notify_one();
  }
  lock.unlock();
  ReleaseThreads(1);
}

void FlexMoESystem::WaitForHelper() {
  std::unique_lock<std::mutex> lock(helper_mu_);
  done_cv_.wait(lock, [this] { return !job_pending_; });
}

}  // namespace flexmoe
