// Per-step and aggregated training metrics: the quantities behind the
// paper's evaluation figures — step time and its compute/A2A/sync
// decomposition, balance ratio, GPU utilization (Fig. 2), token efficiency
// and expert efficiency (Fig. 7a), and throughput (Fig. 7b).

#ifndef FLEXMOE_CORE_METRICS_H_
#define FLEXMOE_CORE_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.h"

namespace flexmoe {

namespace obs {
class Observability;
}  // namespace obs

struct StepTiming;

/// \brief Metrics of one executed training step.
struct StepMetrics {
  int64_t step = 0;
  double step_seconds = 0.0;

  /// Phase decomposition (seconds on the critical path).
  double a2a_seconds = 0.0;
  double compute_seconds = 0.0;
  double sync_seconds = 0.0;
  double non_moe_seconds = 0.0;  ///< non-MoE compute only
  double dp_sync_seconds = 0.0;  ///< the data-parallel AllReduce
  double adjust_block_seconds = 0.0;  ///< blocking adjustments only

  /// Mean balance ratio over the step's MoE layers (Eq. 6).
  double balance_ratio = 1.0;

  /// Fraction of token-assignments processed by their gate-chosen experts.
  double token_efficiency = 1.0;

  /// Meaningful-computation fraction: mean expert-compute time across GPUs
  /// divided by the max (1.0 = perfectly even expert work).
  double expert_efficiency = 1.0;

  /// Expert-compute busy time / (GPUs x step time), Fig. 2's utilization.
  double gpu_utilization = 0.0;

  int64_t tokens_total = 0;    ///< token-assignments this step
  int64_t tokens_dropped = 0;  ///< dropped by capacity or lost to faults
  /// Serving only: token-assignments a static layout could not place in
  /// the main pass (capacity overflow, SWIPE re-routes) and re-executed in
  /// a recirculation pass — latency cost instead of quality loss.
  int64_t tokens_recirculated = 0;
  int ops_applied = 0;         ///< placement modifications taking effect
  int ops_launched = 0;

  // --- Elastic-cluster metrics (zero on a static, healthy cluster) -------

  /// Blocking fault-handling time on the critical path this step (restart
  /// penalties, checkpoint reads, emergency drains).
  double recovery_seconds = 0.0;
  /// Cluster events (fail-stop / slowdown / recover / join / leave)
  /// applied at this step's boundary.
  int faults_applied = 0;
  /// True when some expert had no replica on a live device this step.
  bool degraded = false;
};

/// \brief Fills the timing and efficiency fields of `m` from an executed
/// step — the one derivation FlexMoE and every baseline system share.
/// step_seconds is the executed span plus `blocking_seconds` (adjustments
/// and recovery charged before the step). The non-MoE phase is non-MoE
/// compute only, and the data-parallel AllReduce is its own phase; GPU
/// utilization counts the non-MoE compute as useful work, next to the
/// mean expert compute. `num_alive_gpus` (0 = all) is the efficiency
/// denominator, so a rebalanced degraded cluster can still read as 100%
/// efficient — departed devices are lost capacity, not inefficiency.
void MetricsFromTiming(const StepTiming& timing, double blocking_seconds,
                       int num_alive_gpus, StepMetrics* m);

/// \brief Records one step's registry counters (train.steps or
/// serve.microbatches, tokens.*, faults.applied, step.* histograms); a
/// no-op without an enabled metrics registry. Every system calls it once
/// per step, so the keys mean the same thing for FlexMoE and the
/// baselines.
void RecordStepObservability(obs::Observability* obs, bool serving,
                             const StepMetrics& metrics);

/// \brief Accumulates StepMetrics over a run.
class TrainingStats {
 public:
  void Add(const StepMetrics& m);

  const std::vector<StepMetrics>& steps() const { return steps_; }
  int64_t num_steps() const { return static_cast<int64_t>(steps_.size()); }

  /// Aggregates over steps [warmup, end).
  double MeanStepSeconds(int warmup = 0) const;
  double MeanBalanceRatio(int warmup = 0) const;
  double MeanTokenEfficiency(int warmup = 0) const;
  double MeanExpertEfficiency(int warmup = 0) const;
  double MeanGpuUtilization(int warmup = 0) const;
  int64_t TotalOpsApplied() const;
  int64_t TotalTokensDropped() const;
  double TotalRecoverySeconds() const;
  int64_t TotalFaultsApplied() const;
  int64_t DegradedSteps() const;

  /// Tokens (not token-assignments) per second of wall-clock, given tokens
  /// per step.
  double Throughput(double tokens_per_step, int warmup = 0) const;

  std::string Summary() const;

 private:
  template <typename F>
  double MeanOver(int warmup, F&& get) const;

  std::vector<StepMetrics> steps_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_CORE_METRICS_H_
