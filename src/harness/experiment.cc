#include "harness/experiment.h"

#include <cmath>

#include "baselines/static_layout.h"
#include "collective/profiler.h"
#include "core/cost_model.h"
#include "util/string_util.h"

namespace flexmoe {

Status ExperimentOptions::Validate() const {
  FLEXMOE_RETURN_IF_ERROR(model.Validate());
  const std::string key = ToLower(system);
  if (key != "flexmoe" && !StaticAdmissionFor(key)) {
    return Status::InvalidArgument(
        StrFormat("unknown system '%s'", system.c_str()));
  }
  if (num_gpus <= 0 || num_gpus % 8 != 0) {
    return Status::InvalidArgument("num_gpus must be a positive multiple of 8");
  }
  if (measure_steps <= 0) {
    return Status::InvalidArgument("measure_steps must be > 0");
  }
  if (warmup_steps < 0 || warmup_steps >= measure_steps) {
    return Status::InvalidArgument("warmup_steps out of range");
  }
  FLEXMOE_RETURN_IF_ERROR(PipelineOptions{pipeline_chunks}.Validate());
  FLEXMOE_RETURN_IF_ERROR(workload.scenario.Validate());
  FLEXMOE_RETURN_IF_ERROR(serving.Validate());
  FLEXMOE_RETURN_IF_ERROR(observability.Validate());
  return Status::OK();
}

FaultPlanOptions ResolveFaultOptions(const ExperimentOptions& options) {
  FaultPlanOptions f = options.faults;
  if (f.num_gpus <= 0) f.num_gpus = options.num_gpus;
  if (f.seed == 0) f.seed = options.seed;
  if (f.fault_step < 0) f.fault_step = options.measure_steps / 3;
  if (f.horizon_steps <= 0) f.horizon_steps = options.measure_steps;
  return f;
}

Result<TraceGenerator> BuildTraceGenerator(const ExperimentOptions& options) {
  TraceGeneratorOptions t;
  t.num_experts = options.model.num_experts;
  t.num_moe_layers = options.model.num_moe_layers;
  t.num_gpus = options.num_gpus;
  t.tokens_per_gpu = options.model.tokens_per_gpu;
  t.top_k = options.model.top_k;
  t.logit_sigma = options.workload.logit_sigma;
  t.balance_coef = options.balance_coef;
  t.seed = options.seed;
  t.scenario = options.workload.scenario;
  return TraceGenerator::Create(t);
}

Result<std::unique_ptr<TraceSource>> BuildTraceSource(
    const ExperimentOptions& options) {
  if (!options.workload.replay_path.empty()) {
    FLEXMOE_ASSIGN_OR_RETURN(RoutingTrace trace,
                             RoutingTrace::Load(options.workload.replay_path));
    if (trace.num_steps() < options.measure_steps) {
      return Status::InvalidArgument(StrFormat(
          "replay trace has %d steps, experiment needs %d",
          trace.num_steps(), options.measure_steps));
    }
    if (trace.num_layers() != options.model.num_moe_layers ||
        trace.at(0, 0).num_experts() != options.model.num_experts ||
        trace.at(0, 0).num_gpus() != options.num_gpus) {
      return Status::InvalidArgument(StrFormat(
          "replay trace shape [%d layers x %d experts x %d gpus] does not "
          "match the experiment [%d x %d x %d]",
          trace.num_layers(), trace.at(0, 0).num_experts(),
          trace.at(0, 0).num_gpus(), options.model.num_moe_layers,
          options.model.num_experts, options.num_gpus));
    }
    return std::unique_ptr<TraceSource>(
        new ReplayTraceSource(std::move(trace)));
  }
  FLEXMOE_ASSIGN_OR_RETURN(TraceGenerator gen, BuildTraceGenerator(options));
  // The run pulls exactly measure_steps steps: the helper makes no more.
  return std::unique_ptr<TraceSource>(
      new GeneratorTraceSource(std::move(gen), options.measure_steps));
}

Result<std::unique_ptr<MoESystem>> BuildSystem(
    const ExperimentOptions& options, const Topology* topo,
    const HardwareProfile* profile) {
  const std::string key = ToLower(options.system);
  if (key == "flexmoe") {
    FlexMoEOptions o;
    o.model = options.model;
    o.num_gpus = options.num_gpus;
    o.slots_per_gpu = options.slots_per_gpu;
    o.scheduler = options.scheduler;
    o.policy = options.policy;
    o.executor = options.executor;
    o.pipeline.chunks = options.pipeline_chunks;
    if (options.serving.enabled) {
      // Serving optimizes forward latency: drop the Eq. 9 sync term from
      // the planner's objective, and skip sync-consolidation migrations —
      // there are no gradients whose AllReduce they could cheapen.
      o.policy.serve_objective = true;
      o.scheduler.max_migrations = 0;
    }
    FLEXMOE_ASSIGN_OR_RETURN(auto sys,
                             FlexMoESystem::Create(o, topo, profile));
    return std::unique_ptr<MoESystem>(std::move(sys));
  }
  const std::optional<StaticAdmission> admission = StaticAdmissionFor(key);
  if (admission) {
    StaticLayoutOptions o;
    o.model = options.model;
    o.num_gpus = options.num_gpus;
    o.admission = *admission;
    o.capacity_factor = options.capacity_factor;
    o.pipeline.chunks = options.pipeline_chunks;
    FLEXMOE_ASSIGN_OR_RETURN(auto sys,
                             StaticLayoutSystem::Create(o, topo, profile));
    return std::unique_ptr<MoESystem>(std::move(sys));
  }
  return Status::InvalidArgument(
      StrFormat("unknown system '%s'", options.system.c_str()));
}

ExperimentOptions LargeEPOptions(int num_gpus) {
  ExperimentOptions options;
  options.num_gpus = num_gpus;
  // One expert per GPU: the pure expert-parallel regime where the planner's
  // candidate sets and the A2A fan-in both scale with G. Keep the GPT-MoE-S
  // widths so per-expert cost stays realistic, but shrink the layer stack
  // and per-GPU batch — the preset probes planning scalability, not
  // end-to-end model throughput.
  options.model = GptMoES();
  options.model.name = StrFormat("gpt-moe-ep%d", num_gpus);
  options.model.num_experts = num_gpus;
  options.model.num_moe_layers = 2;
  options.model.tokens_per_gpu = 1024;
  // Two slots per GPU: the resident expert plus one replication slot. The
  // default granularity (4 slots) packs every expert 4x, which at E = G
  // just multiplies vExpert bookkeeping without changing the regime.
  options.slots_per_gpu = 2;
  options.measure_steps = 30;
  options.warmup_steps = 5;
  return options;
}

Result<ExperimentReport> RunExperiment(const ExperimentOptions& options) {
  FLEXMOE_RETURN_IF_ERROR(options.Validate());

  FLEXMOE_ASSIGN_OR_RETURN(Topology topo,
                           Topology::Create(AzureA100Options(options.num_gpus)));
  const GpuSpec spec;
  HardwareProfile profile(&topo, spec);
  if (options.calibrate_profile) {
    Profiler profiler(&topo, spec, ProfilerOptions{});
    FLEXMOE_ASSIGN_OR_RETURN(
        profile,
        profiler.Calibrate(options.model.expert_fwdbwd_flops_per_token()));
  }

  FLEXMOE_ASSIGN_OR_RETURN(std::unique_ptr<TraceSource> source,
                           BuildTraceSource(options));
  RoutingTrace recorded;
  if (!options.workload.record_path.empty()) {
    source = std::unique_ptr<TraceSource>(
        new RecordingTraceSource(std::move(source), &recorded));
  }
  FLEXMOE_ASSIGN_OR_RETURN(std::unique_ptr<MoESystem> system,
                           BuildSystem(options, &topo, &profile));

  // Per-run observability handle (DESIGN.md Section 9). Created even when
  // disabled so call sites exercise the real disabled branch; the system
  // only records through it when `enabled`.
  obs::Observability observability(options.observability);
  system->SetObservability(&observability);

  if (options.faults.scenario != "none") {
    const FaultPlanOptions resolved = ResolveFaultOptions(options);
    FLEXMOE_ASSIGN_OR_RETURN(FaultPlan plan, FaultPlan::Generate(resolved));
    FLEXMOE_RETURN_IF_ERROR(system->InstallFaultPlan(plan));
  }

  uint64_t trace_hash = kTraceHashSeed;
  ServingReport serve_report;
  if (options.serving.enabled) {
    // Serving loop: measure_steps microbatches of continuous batching.
    RequestSourceOptions ro;
    ro.arrival_rate_rps = options.serving.arrival_rate_rps;
    ro.tokens_per_request = options.serving.tokens_per_request;
    ro.slo_seconds = options.serving.slo_seconds;
    ro.step_seconds = options.serving.batch_window_seconds;
    ro.scenario = options.workload.scenario;
    ro.size_mix = options.serving.size_mix;
    // Salted so the arrival stream is independent of the routing stream
    // even though both derive from the experiment seed.
    constexpr uint64_t kServingSeedSalt = 0x5e12f1c3a7b98d41ULL;
    ro.seed = options.seed ^ kServingSeedSalt;
    FLEXMOE_ASSIGN_OR_RETURN(RequestSource requests,
                             RequestSource::Create(ro));
    const int64_t max_batch =
        options.serving.max_batch_tokens > 0
            ? options.serving.max_batch_tokens
            : options.model.tokens_per_gpu * options.num_gpus;
    // Deadline-aware shedding tests against the cost model's contention-
    // free forward estimate (core/cost_model.h), memoized: admission
    // probes every queued request each window with token counts from a
    // small working set, so the floor is O(1) in steady state.
    ForwardFloorEstimator floor(&profile, options.model, options.num_gpus,
                                options.pipeline_chunks);
    MoESystem* sys_ptr = system.get();
    // The floor depends on how many devices share the work: consult the
    // live alive count per probe so a failover (or recovery) invalidates
    // the memoized estimates instead of serving pre-failure floors.
    ServeExecutor::LatencyEstimator estimator =
        [&floor, sys_ptr](int64_t tokens) {
          if (const ClusterHealth* h = sys_ptr->cluster_health();
              h != nullptr && h->num_alive() > 0) {
            floor.set_num_gpus(h->num_alive());
          }
          return floor.Seconds(tokens);
        };
    ServeExecutor serve(system.get(), source.get(), &requests,
                        options.serving, max_batch, options.model.top_k,
                        std::move(estimator));
    serve.set_observability(&observability);
    FLEXMOE_ASSIGN_OR_RETURN(serve_report,
                             serve.Run(options.measure_steps));
    trace_hash = serve.trace_hash();
  } else {
    for (int s = 0; s < options.measure_steps; ++s) {
      const std::vector<Assignment> step = source->NextStep();
      trace_hash = HashStep(step, trace_hash);
      system->RunStep(step);
    }
  }
  if (!options.workload.record_path.empty()) {
    FLEXMOE_RETURN_IF_ERROR(recorded.Save(options.workload.record_path));
  }
  FLEXMOE_RETURN_IF_ERROR(observability.ExportArtifacts());

  ExperimentReport report;
  report.system = system->name();
  report.model = options.model.name;
  report.workload = options.workload.replay_path.empty()
                        ? options.workload.scenario.name
                        : "replay:" + options.workload.replay_path;
  report.trace_hash = trace_hash;
  report.num_gpus = options.num_gpus;
  report.stats = system->stats();
  report.tokens_per_step = static_cast<double>(options.model.tokens_per_gpu) *
                           options.num_gpus;
  const int warmup = options.warmup_steps;
  report.mean_step_seconds = report.stats.MeanStepSeconds(warmup);
  report.throughput_tokens_per_sec =
      report.stats.Throughput(report.tokens_per_step, warmup);
  report.mean_token_efficiency = report.stats.MeanTokenEfficiency(warmup);
  report.mean_effective_token_rate =
      EffectiveTokenRate(report.system, report.mean_token_efficiency);
  report.mean_expert_efficiency = report.stats.MeanExpertEfficiency(warmup);
  report.mean_gpu_utilization = report.stats.MeanGpuUtilization(warmup);
  report.mean_balance_ratio = report.stats.MeanBalanceRatio(warmup);
  report.faults_applied = report.stats.TotalFaultsApplied();
  report.tokens_dropped_total = report.stats.TotalTokensDropped();
  report.recovery_seconds_total = report.stats.TotalRecoverySeconds();
  report.degraded_steps = report.stats.DegradedSteps();

  if (options.serving.enabled) {
    // Serving has no time-to-quality: the deliverable metrics are latency
    // and SLO attainment. Throughput counts tokens actually served.
    report.serving = true;
    report.serve = serve_report;
    report.tokens_per_step = serve_report.mean_batch_tokens;
    report.throughput_tokens_per_sec = serve_report.served_tokens_per_sec;
    return report;
  }

  // Time-to-quality: effective tokens needed to hit the DeepSpeed-quality
  // target, at this system's measured effective-token rate and step time.
  // Models without a Table 2 calibration (synthetic microbenchmarks)
  // report throughput only.
  const Result<ConvergenceModel> conv = PrimaryConvergence(options.model);
  if (conv.ok()) {
    report.target_metric_name = conv->calibration().metric_name;
    report.target_metric = conv->DefaultTarget();
    const double u_target = conv->EffectiveTokensForMetric(
        report.target_metric, options.balance_coef);
    const double eff_tokens_per_step =
        report.tokens_per_step * report.mean_effective_token_rate;
    report.steps_to_target =
        std::isfinite(u_target) && eff_tokens_per_step > 0
            ? u_target / eff_tokens_per_step
            : std::numeric_limits<double>::infinity();
    report.hours_to_target =
        report.steps_to_target * report.mean_step_seconds / 3600.0;
    report.metric_at_budget = conv->MetricAt(
        conv->calibration().u_total_tokens * report.mean_effective_token_rate,
        options.balance_coef);
  }
  return report;
}

}  // namespace flexmoe
