#include "core/system.h"

namespace flexmoe {

namespace {

/// Fills the timing and efficiency fields of `m` from an executed step.
/// step_seconds is the executed span plus `blocking_seconds` (adjustments
/// and recovery charged before the step). The non-MoE phase is non-MoE
/// compute only, and the data-parallel AllReduce is its own phase; GPU
/// utilization counts the non-MoE compute as useful work, next to the mean
/// expert compute. The mean is over the `num_alive_gpus` devices that
/// exist, so a rebalanced degraded cluster can still read as 100%
/// efficient — departed devices are lost capacity, not inefficiency.
void MetricsFromTiming(const StepTiming& timing, double blocking_seconds,
                       int num_alive_gpus, StepMetrics* m) {
  m->step_seconds = timing.StepSeconds() + blocking_seconds;
  m->a2a_seconds = timing.a2a_seconds;
  m->compute_seconds = timing.compute_seconds;
  m->sync_seconds = timing.sync_seconds;
  m->non_moe_seconds = timing.non_moe_seconds;
  m->dp_sync_seconds = timing.dp_sync_seconds;

  double max_c = 0.0, mean_c = 0.0;
  for (double v : timing.per_gpu_expert_compute) {
    max_c = v > max_c ? v : max_c;
    mean_c += v;
  }
  if (num_alive_gpus > 0) mean_c /= static_cast<double>(num_alive_gpus);
  m->expert_efficiency = max_c > 0.0 ? mean_c / max_c : 1.0;
  m->gpu_utilization =
      m->step_seconds > 0.0
          ? (mean_c + m->non_moe_seconds) / m->step_seconds
          : 0.0;
}

/// Records one step's registry counters (train.steps or
/// serve.microbatches, tokens.*, faults.applied, step.* histograms); a
/// no-op without an enabled metrics registry. Every system's step records
/// through here, so the keys mean the same thing for FlexMoE and the
/// baselines.
void RecordStepObservability(obs::Observability* obs, bool serving,
                             const StepMetrics& metrics) {
  obs::MetricsRegistry* m = obs::MetricsOf(obs);
  if (m == nullptr) return;
  m->Add(serving ? "serve.microbatches" : "train.steps");
  m->Add("tokens.total", metrics.tokens_total);
  if (metrics.tokens_dropped > 0) {
    m->Add("tokens.dropped", metrics.tokens_dropped);
  }
  if (metrics.tokens_recirculated > 0) {
    m->Add("tokens.recirculated", metrics.tokens_recirculated);
  }
  if (metrics.faults_applied > 0) {
    m->Add("faults.applied", metrics.faults_applied);
  }
  m->Observe("step.seconds", metrics.step_seconds);
  m->Observe("step.balance_ratio", metrics.balance_ratio);
}

}  // namespace

SystemFrame::SystemFrame(const Topology* topo, const HardwareProfile* profile,
                         const ModelConfig& model, RepairMode repair,
                         const PipelineOptions& pipeline)
    : profile_(profile),
      cluster_(topo),
      elastic_(topo->num_gpus(), topo, repair),
      step_executor_(&cluster_, profile, model, &elastic_.health()),
      num_layers_(model.num_moe_layers),
      expert_state_bytes_(model.expert_state_bytes()) {
  step_executor_.set_pipeline(pipeline);
}

void SystemFrame::SetObservability(obs::Observability* obs) {
  obs_ = obs;
  step_executor_.set_observability(obs);
  elastic_.SetObservability(obs);
  if (obs::Tracer* tr = obs::TracerOf(obs); tr != nullptr) {
    tr->set_num_gpus(cluster_.num_gpus());
  }
}

StepMetrics SystemFrame::CheckedStep(
    const std::vector<Assignment>& layer_assignments, bool serving) {
  FLEXMOE_CHECK(static_cast<int>(layer_assignments.size()) == num_layers_);
  return Step(layer_assignments, serving);
}

SystemFrame::Boundary SystemFrame::OpenStep(Placement* placements,
                                            size_t num_placements,
                                            NcclGroupCache* groups,
                                            StepMetrics* metrics) {
  Boundary boundary;
  boundary.faults = elastic_.OnStepBoundary(
      step_, placements, num_placements, groups, expert_state_bytes_);
  boundary.time = step_executor_.Frontier();
  boundary.blocking = boundary.faults.recovery_seconds;
  metrics->step = step_;
  metrics->faults_applied = static_cast<int>(boundary.faults.events.size());
  metrics->recovery_seconds = boundary.faults.recovery_seconds;
  // Degraded mode is a state, not an event: flag every step on which some
  // expert has no replica on a live device.
  const ClusterHealth& health = elastic_.health();
  if (!health.AllHealthy()) {
    for (size_t i = 0; i < num_placements && !metrics->degraded; ++i) {
      metrics->degraded = ExpertsWithoutLiveReplica(placements[i], health) > 0;
    }
  }
  return boundary;
}

void SystemFrame::ChargeBoundary(const Boundary& boundary) {
  if (boundary.blocking > 0.0) {
    cluster_.BlockAll(boundary.time, boundary.blocking);
  }
  if (obs::Tracer* tr = obs::TracerOf(obs_); tr != nullptr) {
    for (const FaultEvent& e : boundary.faults.events) {
      tr->Instant("fault_event", "recovery", obs::kControlLane, boundary.time,
                  "gpu", static_cast<double>(e.gpu));
    }
    if (boundary.blocking > 0.0) {
      tr->Span("recovery_block", "recovery", obs::kControlLane, boundary.time,
               boundary.time + boundary.blocking, "faults",
               static_cast<double>(boundary.faults.events.size()));
    }
  }
}

const std::vector<Assignment>& SystemFrame::Reshard(
    const std::vector<Assignment>& layer_assignments,
    std::vector<Assignment>* scratch, StepMetrics* metrics) const {
  if (!elastic_.health().AnyDead()) return layer_assignments;
  scratch->clear();
  scratch->reserve(layer_assignments.size());
  for (const Assignment& a : layer_assignments) {
    scratch->push_back(elastic_.AdjustAssignment(a, &metrics->tokens_dropped));
  }
  return *scratch;
}

StepMetrics SystemFrame::CloseStep(const StepTiming& timing,
                                   double blocking_seconds, int64_t reassigned,
                                   bool serving, StepMetrics* metrics) {
  MetricsFromTiming(timing, blocking_seconds, elastic_.health().num_alive(),
                    metrics);
  metrics->token_efficiency =
      metrics->tokens_total > 0
          ? static_cast<double>(metrics->tokens_total -
                                metrics->tokens_dropped - reassigned) /
                static_cast<double>(metrics->tokens_total)
          : 1.0;
  RecordStepObservability(obs_, serving, *metrics);
  ++step_;
  stats_.Add(*metrics);
  return *metrics;
}

}  // namespace flexmoe
