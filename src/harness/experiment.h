// Experiment harness: builds a simulated cluster, profiles it, generates a
// routing trace, runs a training system over it, and reports the paper's
// metrics (step time, throughput, efficiencies, time-to-quality).
//
// All systems in one comparison share the same trace seed, so they consume
// an identical token stream — exactly how the paper fixes hyper-parameters
// across systems (Section 5.1).

#ifndef FLEXMOE_HARNESS_EXPERIMENT_H_
#define FLEXMOE_HARNESS_EXPERIMENT_H_

#include <memory>
#include <string>

#include "core/flexmoe.h"
#include "core/serve_executor.h"
#include "core/system.h"
#include "elastic/fault_plan.h"
#include "gate/trace_generator.h"
#include "gate/trace_source.h"
#include "moe/model_config.h"
#include "obs/observability.h"
#include "quality/targets.h"

namespace flexmoe {

/// \brief Which workload the experiment consumes: a named scenario from
/// the catalog (gate/logit_process.h) generated live, or a replayed
/// recorded trace. Orthogonally, the consumed stream can be recorded.
struct WorkloadOptions {
  /// Logit-dynamics regime for the live generator (ignored on replay).
  ScenarioOptions scenario;
  /// The live generator's base logit scale; 0 calibrates it from the
  /// paper's skew target (TraceGenerator::kSkewTopShare). The generator
  /// rejects a non-finite or negative value.
  double logit_sigma = 0.0;
  /// When non-empty, replay this saved RoutingTrace instead of generating.
  /// The trace must cover measure_steps and match the model's shape.
  std::string replay_path;
  /// When non-empty, save the consumed trace here after the run.
  std::string record_path;
};

/// \brief One experiment configuration.
struct ExperimentOptions {
  /// "flexmoe" | "deepspeed" | "fastermoe" | "swipe".
  std::string system = "flexmoe";
  ModelConfig model = GptMoES();
  int num_gpus = 32;

  /// Simulated steps to measure (plus warmup excluded from aggregates).
  int measure_steps = 200;
  int warmup_steps = 20;

  uint64_t seed = 42;
  double balance_coef = 0.001;   ///< paper default for all systems
  double capacity_factor = 1.0;  ///< DeepSpeed only; <= 0 disables capacity

  /// FlexMoE-specific knobs.
  SchedulerOptions scheduler;
  PolicyMakerOptions policy;
  ExecutorOptions executor;
  int slots_per_gpu = 0;

  /// Calibrate the hardware profile against the event engine (paper's
  /// pre-training profiling pass). Disable for raw analytic defaults.
  bool calibrate_profile = true;

  /// Chunked-overlap pipelining depth (DESIGN.md Sections 11-12): each MoE
  /// layer's routed tokens split into this many chunks whose dispatch /
  /// compute / combine phases overlap through the stream model, on both
  /// the forward and backward MoE legs; mirrored into the serving
  /// shedding floor so it stays a floor on the chunked executor.
  /// Placement planning always scores at K = 1, whatever depth runs
  /// (DESIGN.md §12.2). 1 = every leg at K = 1: one chunk per cell, timed,
  /// estimated and floored by the same rule as every other depth. 0 =
  /// auto-K: FlexMoE plans a per-layer depth from the overhead-honest
  /// cost model (baselines run at K = 1, and the serving floor takes the
  /// min over the candidate depths, which floors any per-layer choice).
  /// At most kMaxPipelineChunks. (bench --pipeline-chunks.)
  int pipeline_chunks = 1;

  /// Compile-only stub: perfbench/runner.cc:394 still reads this flag,
  /// and it is its only reason to exist. The per-node A2A estimation mode
  /// it once selected is gone; no caller can set it.
  static constexpr bool hierarchical_a2a = false;

  /// Workload regime / replay / record selection.
  WorkloadOptions workload;

  /// Serving mode (DESIGN.md Section 8): when `serving.enabled`, the run
  /// is a latency-SLO serving workload — `measure_steps` counts
  /// microbatches, each consuming one TraceSource step rescaled to the
  /// admitted request volume, executed forward-only (no optimizer step).
  /// Arrival-rate modulation follows `workload.scenario`; replay runs must
  /// therefore pass the same scenario options as the recording run to see
  /// the identical request stream.
  ServingOptions serving;

  /// Observability (DESIGN.md Section 9): when `observability.enabled`,
  /// the run records sim-time spans, registry counters, and policy
  /// decision records, and exports any artifact whose output path is set
  /// (bench flags --trace-out / --metrics-out / --decisions-out). The
  /// exports are byte-deterministic for a fixed seed.
  obs::ObservabilityOptions observability;

  /// Fault scenario (elastic-cluster subsystem). `faults.scenario` of
  /// "none" runs a static, healthy cluster; any other scenario builds a
  /// FaultPlan and installs it on the system under test. faults.num_gpus
  /// <= 0 and faults.seed == 0 inherit the experiment's values;
  /// faults.fault_step < 0 selects measure_steps / 3.
  FaultPlanOptions faults;

  Status Validate() const;
};

/// \brief Aggregated outcome of one experiment.
struct ExperimentReport {
  std::string system;
  std::string model;
  /// Workload the run consumed: scenario name, or "replay:<path>".
  std::string workload;
  int num_gpus = 0;
  /// FNV-1a hash of every consumed assignment (seeded kTraceHashSeed):
  /// two runs saw the identical token stream iff their hashes match.
  uint64_t trace_hash = 0;

  TrainingStats stats;
  double tokens_per_step = 0.0;   ///< tokens (not assignments) per step
  double mean_step_seconds = 0.0;
  double throughput_tokens_per_sec = 0.0;
  double mean_token_efficiency = 1.0;
  double mean_effective_token_rate = 1.0;
  double mean_expert_efficiency = 1.0;
  double mean_gpu_utilization = 0.0;
  double mean_balance_ratio = 1.0;

  /// Time-to-quality (paper Figure 5): reach the DeepSpeed Table 2 value.
  std::string target_metric_name;
  double target_metric = 0.0;
  double steps_to_target = 0.0;
  double hours_to_target = 0.0;
  /// Metric value at the full training budget (paper Table 2 readout).
  double metric_at_budget = 0.0;

  // --- Fault-scenario outcomes (zero without an installed plan) ----------
  int64_t faults_applied = 0;
  int64_t tokens_dropped_total = 0;
  double recovery_seconds_total = 0.0;
  int64_t degraded_steps = 0;

  // --- Serving outcomes (meaningful iff `serving`) -----------------------
  bool serving = false;
  ServingReport serve;
};

/// \brief Large-EP preset (DESIGN.md Section 10): one expert per GPU
/// (E = G = num_gpus, the Pangu-Ultra-MoE/FSMoE regime from PAPERS.md),
/// two slots per GPU and a short two-layer stack, planned by the same
/// Eq. 5/8/9 cost model and expand order as every other cell. `num_gpus`
/// must be a multiple of 8 (AzureA100Options).
ExperimentOptions LargeEPOptions(int num_gpus);

/// \brief Resolves the experiment's fault options (inherited num_gpus /
/// seed / fault_step defaults filled in) without building the plan.
FaultPlanOptions ResolveFaultOptions(const ExperimentOptions& options);

/// \brief Builds the trace generator an experiment would use (exposed so
/// benches can pre-inspect the workload).
Result<TraceGenerator> BuildTraceGenerator(const ExperimentOptions& options);

/// \brief Builds the experiment's assignment stream: a live generator for
/// `workload.scenario` that prefetches at most `measure_steps` steps, or a
/// replay of `workload.replay_path` (validated against the model shape and
/// step budget).
Result<std::unique_ptr<TraceSource>> BuildTraceSource(
    const ExperimentOptions& options);

/// \brief Builds the system under test against the given cluster.
Result<std::unique_ptr<MoESystem>> BuildSystem(
    const ExperimentOptions& options, const Topology* topo,
    const HardwareProfile* profile);

/// \brief Runs the full experiment and aggregates the report.
Result<ExperimentReport> RunExperiment(const ExperimentOptions& options);

}  // namespace flexmoe

#endif  // FLEXMOE_HARNESS_EXPERIMENT_H_
