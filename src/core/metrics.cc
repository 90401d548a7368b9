#include "core/metrics.h"

#include "util/string_util.h"

namespace flexmoe {

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
