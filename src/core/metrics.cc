#include "core/metrics.h"

#include "core/step_executor.h"
#include "obs/observability.h"
#include "util/status.h"
#include "util/string_util.h"

namespace flexmoe {

void MetricsFromTiming(const StepTiming& timing, double blocking_seconds,
                       int num_alive_gpus, StepMetrics* m) {
  FLEXMOE_CHECK(m != nullptr);
  m->step_seconds = timing.StepSeconds() + blocking_seconds;
  m->a2a_seconds = timing.a2a_seconds;
  m->compute_seconds = timing.compute_seconds;
  m->sync_seconds = timing.sync_seconds;
  m->non_moe_seconds = timing.non_moe_seconds;
  m->dp_sync_seconds = timing.dp_sync_seconds;

  const std::vector<double>& per_gpu = timing.per_gpu_expert_compute;
  double max_c = 0.0, mean_c = 0.0;
  for (double v : per_gpu) {
    max_c = v > max_c ? v : max_c;
    mean_c += v;
  }
  const int denom =
      num_alive_gpus > 0 ? num_alive_gpus : static_cast<int>(per_gpu.size());
  if (denom > 0) mean_c /= static_cast<double>(denom);
  m->expert_efficiency = max_c > 0.0 ? mean_c / max_c : 1.0;
  m->gpu_utilization =
      m->step_seconds > 0.0
          ? (mean_c + m->non_moe_seconds) / m->step_seconds
          : 0.0;
}

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

void TrainingStats::Add(const StepMetrics& m) { steps_.push_back(m); }

template <typename F>
double TrainingStats::MeanOver(int warmup, F&& get) const {
  if (static_cast<size_t>(warmup) >= steps_.size()) return 0.0;
  double sum = 0.0;
  int64_t n = 0;
  for (size_t i = static_cast<size_t>(warmup); i < steps_.size(); ++i) {
    sum += get(steps_[i]);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double TrainingStats::MeanStepSeconds(int warmup) const {
  return MeanOver(warmup, [](const StepMetrics& m) { return m.step_seconds; });
}

double TrainingStats::MeanBalanceRatio(int warmup) const {
  return MeanOver(warmup,
                  [](const StepMetrics& m) { return m.balance_ratio; });
}

double TrainingStats::MeanTokenEfficiency(int warmup) const {
  return MeanOver(warmup,
                  [](const StepMetrics& m) { return m.token_efficiency; });
}

double TrainingStats::MeanExpertEfficiency(int warmup) const {
  return MeanOver(warmup,
                  [](const StepMetrics& m) { return m.expert_efficiency; });
}

double TrainingStats::MeanGpuUtilization(int warmup) const {
  return MeanOver(warmup,
                  [](const StepMetrics& m) { return m.gpu_utilization; });
}

double TrainingStats::TotalSeconds() const {
  double total = 0.0;
  for (const StepMetrics& m : steps_) total += m.step_seconds;
  return total;
}

int64_t TrainingStats::TotalOpsApplied() const {
  int64_t total = 0;
  for (const StepMetrics& m : steps_) total += m.ops_applied;
  return total;
}

int64_t TrainingStats::TotalTokensDropped() const {
  int64_t total = 0;
  for (const StepMetrics& m : steps_) total += m.tokens_dropped;
  return total;
}

double TrainingStats::TotalRecoverySeconds() const {
  double total = 0.0;
  for (const StepMetrics& m : steps_) total += m.recovery_seconds;
  return total;
}

int64_t TrainingStats::TotalFaultsApplied() const {
  int64_t total = 0;
  for (const StepMetrics& m : steps_) total += m.faults_applied;
  return total;
}

int64_t TrainingStats::DegradedSteps() const {
  int64_t total = 0;
  for (const StepMetrics& m : steps_) total += m.degraded ? 1 : 0;
  return total;
}

double TrainingStats::Throughput(double tokens_per_step, int warmup) const {
  const double mean = MeanStepSeconds(warmup);
  return mean > 0.0 ? tokens_per_step / mean : 0.0;
}

std::string TrainingStats::Summary() const {
  return StrFormat(
      "steps=%lld mean_step=%s balance=%.3f token_eff=%.3f expert_eff=%.3f "
      "gpu_util=%.3f ops=%lld",
      static_cast<long long>(num_steps()), HumanTime(MeanStepSeconds()).c_str(),
      MeanBalanceRatio(), MeanTokenEfficiency(), MeanExpertEfficiency(),
      MeanGpuUtilization(), static_cast<long long>(TotalOpsApplied()));
}

}  // namespace flexmoe
