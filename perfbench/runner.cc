// End-to-end benchmark runner: runs one named workload of experiment cells
// through the simulator's public API and prints what it measured as one
// JSON object on the last line of stdout. perfbench/run.py builds and calls
// it; see perfbench/README.md for the workloads and metrics.
//
// Usage:
//   perfbench_runner --workload NAME --seed N --mode setup|timed|traced
//                    [--seconds S] [--spans PATH]
//
// Modes:
//   setup   set every cell up once, in this fresh process (so the logit-
//           sigma calibration memo starts cold), and report the seconds.
//   timed   run the workload's cells round after round while whole rounds
//           fit in S seconds of loop wall (at least one round). The clock
//           is read only at cell phase boundaries (before set-up, between
//           set-up and the loop, after the loop) and, in training loops,
//           between steps; never inside a layer call. Every round repeats
//           the same deterministic work, so each loop piece (a training
//           step, or a whole serving run) keeps its fastest wall over the
//           rounds: on a shared host the slower repeats measure
//           interference, not the simulator.
//   traced  the same rounds, each cell run twice: once with every layer
//           call wrapped in a span (gate, system, cost-model floor, serve
//           admission, set-up steps) and observability enabled so the
//           registry counters can be read, then once timed, so the tracing
//           overhead is measured under the same host conditions. Spans
//           stay in memory and are written to PATH at exit.
//
// Both run modes check every cell: each call returns OK, serving ledgers
// conserve, the four systems of a training scenario consume the same
// trace, every round reproduces the first, and each cell's digest is
// byte-identical to RunExperiment on the same options.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "collective/profiler.h"
#include "core/cost_model.h"
#include "core/serve_executor.h"
#include "core/system.h"
#include "gate/logit_process.h"
#include "gate/request_source.h"
#include "gate/trace_source.h"
#include "harness/experiment.h"
#include "harness/golden.h"
#include "obs/observability.h"
#include "quality/convergence.h"
#include "quality/targets.h"
#include "topology/profile.h"
#include "topology/topology.h"
#include "util/string_util.h"

namespace flexmoe {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---- Workloads --------------------------------------------------------------

constexpr const char* kSystems[4] = {"deepspeed", "fastermoe", "swipe",
                                     "flexmoe"};

struct Cell {
  std::string label;
  std::string scenario;
  ExperimentOptions options;
};

/// The workload suite's full-scale training cell: WorkloadGoldenCell at
/// G=16 with 120 steps and the scenario clocks stretched to match.
ExperimentOptions TrainCatalogCell(const std::string& scenario,
                                   const std::string& system) {
  ExperimentOptions o = WorkloadGoldenCell(scenario, system);
  o.measure_steps = 120;
  o.warmup_steps = 20;
  o.workload.scenario.shift_step = 60;
  o.workload.scenario.diurnal_period = 48.0;
  o.workload.scenario.tenant_block_steps = 20;
  return o;
}

/// The G=512 large-EP cell with auto-K. The horizon is shorter than the
/// preset's 30 steps so that a run can repeat it; the per-step work is the
/// preset's.
ExperimentOptions LargeEPCell() {
  ExperimentOptions o = LargeEPOptions(512);
  o.pipeline_chunks = 0;
  o.measure_steps = 12;
  o.warmup_steps = 2;
  return o;
}

/// The heavy-tailed serving cell (EDF admission, shedding on) with the
/// serving suite's full-scale clocks.
ExperimentOptions ServeMixCell(const std::string& scenario,
                               const std::string& system) {
  ExperimentOptions o = ServingSizeMixCell(scenario, system);
  o.measure_steps = 120;
  o.warmup_steps = 20;
  o.workload.scenario.shift_step = 60;
  o.workload.scenario.diurnal_period = 40.0;
  o.workload.scenario.tenant_block_steps = 20;
  return o;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"train-catalog", "large-ep",
                                                 "serve-mix"};
  return names;
}

std::vector<Cell> BuildCells(const std::string& workload, uint64_t seed) {
  std::vector<Cell> cells;
  auto add = [&](const std::string& scenario, const std::string& system,
                 ExperimentOptions o) {
    o.seed = seed;
    cells.push_back(
        {StrFormat("%s/%s", scenario.c_str(), system.c_str()), scenario, o});
  };
  if (workload == "train-catalog") {
    for (const std::string& scenario : ScenarioCatalog()) {
      for (const char* system : kSystems) {
        add(scenario, system, TrainCatalogCell(scenario, system));
      }
    }
  } else if (workload == "large-ep") {
    add("large-ep-g512", "flexmoe", LargeEPCell());
  } else if (workload == "serve-mix") {
    for (const char* scenario : {"bursty", "multi-tenant"}) {
      for (const char* system : kSystems) {
        add(scenario, system, ServeMixCell(scenario, system));
      }
    }
  }
  return cells;
}

// ---- Spans ------------------------------------------------------------------

enum Layer : int {
  kCell,
  kSetup,
  kSetupTopology,
  kSetupCalibrate,
  kSetupTraceSource,
  kSetupSystem,
  kLoop,
  kServe,
  kGate,
  kSystemFlexMoE,
  kSystemStatic,
  kFloor,
  kNumLayers,
};

constexpr const char* kLayerNames[kNumLayers] = {
    "cell", "setup", "setup.topology", "setup.calibrate", "setup.trace_source",
    "setup.system", "loop", "serve", "gate", "system.flexmoe", "system.static",
    "cost_model.floor"};

struct Span {
  int layer = kCell;
  int cell = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for a cell root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span log. Spans nest strictly (every call returns before its
/// caller does), so the open spans form a stack.
class SpanLog {
 public:
  int Open(int layer) {
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({layer, cell_, open_.empty() ? -1 : open_.back(),
                      NowNs(), 0});
    open_.push_back(index);
    return index;
  }
  void Close(int index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_.pop_back();
  }
  void set_cell(int cell) { cell_ = cell; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int cell_ = 0;
};

/// Opens a span for its scope when `log` is set; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, int layer)
      : log_(log), index_(log != nullptr ? log->Open(layer) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Forwarding TraceSource that spans each NextStep and counts the
/// token-assignments it hands out.
class SpannedTraceSource : public TraceSource {
 public:
  SpannedTraceSource(TraceSource* inner, SpanLog* log, int64_t* assignments)
      : inner_(inner), log_(log), assignments_(assignments) {}

  std::vector<Assignment> NextStep() override {
    std::vector<Assignment> step;
    {
      ScopedSpan span(log_, kGate);
      step = inner_->NextStep();
    }
    for (const Assignment& a : step) *assignments_ += a.Total();
    return step;
  }
  int64_t StepsRemaining() const override { return inner_->StepsRemaining(); }

 private:
  TraceSource* inner_;
  SpanLog* log_;
  int64_t* assignments_;
};

/// Forwarding MoESystem that spans each RunStep / ServeMicrobatch.
class SpannedSystem : public MoESystem {
 public:
  SpannedSystem(MoESystem* inner, SpanLog* log, int layer)
      : inner_(inner), log_(log), layer_(layer) {}

  std::string name() const override { return inner_->name(); }
  StepMetrics RunStep(const std::vector<Assignment>& step) override {
    ScopedSpan span(log_, layer_);
    return inner_->RunStep(step);
  }
  StepMetrics ServeMicrobatch(const std::vector<Assignment>& step) override {
    ScopedSpan span(log_, layer_);
    return inner_->ServeMicrobatch(step);
  }
  const TrainingStats& stats() const override { return inner_->stats(); }
  const ClusterState& cluster() const override { return inner_->cluster(); }
  Status InstallFaultPlan(const FaultPlan& plan) override {
    return inner_->InstallFaultPlan(plan);
  }
  const ClusterHealth* cluster_health() const override {
    return inner_->cluster_health();
  }
  void SetObservability(obs::Observability* o) override {
    inner_->SetObservability(o);
  }

 private:
  MoESystem* inner_;
  SpanLog* log_;
  int layer_;
};

// ---- One cell ---------------------------------------------------------------

/// Registry counters read after a traced cell (zero when observability is
/// off or the cell does not produce them).
struct CellCounters {
  int64_t policy_invocations = 0;
  int64_t policy_triggers = 0;
  int64_t policy_candidates = 0;
  int64_t policy_rounds = 0;
  int64_t policy_ops_enqueued = 0;
  int64_t serve_batches = 0;
  int64_t serve_chunked = 0;
  int64_t serve_failed_batches = 0;
  int64_t serve_arrived = 0;
  int64_t serve_shed = 0;
};

struct CellOutcome {
  ExperimentReport report;
  CellCounters counters;
  int64_t gate_assignments = 0;
  double loop_s = 0.0;
  /// The loop wall in repeatable pieces: one per training step, or the
  /// whole serving run (one ServeExecutor::Run call).
  std::vector<double> piece_s;
};

/// The report aggregation of RunExperiment, applied to a finished system.
ExperimentReport BuildReport(const ExperimentOptions& options,
                             const MoESystem& system, uint64_t trace_hash,
                             const ServingReport& serve_report) {
  ExperimentReport report;
  report.system = system.name();
  report.model = options.model.name;
  report.workload = options.workload.scenario.name;
  report.trace_hash = trace_hash;
  report.num_gpus = options.num_gpus;
  report.stats = system.stats();
  report.tokens_per_step =
      static_cast<double>(options.model.tokens_per_gpu) * options.num_gpus;
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
    report.serving = true;
    report.serve = serve_report;
    report.tokens_per_step = serve_report.mean_batch_tokens;
    report.throughput_tokens_per_sec = serve_report.served_tokens_per_sec;
    return report;
  }
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

/// Everything a cell needs before its loop starts, built through the same
/// public calls RunExperiment makes, in the same order.
struct CellSetup {
  std::unique_ptr<Topology> topo;
  std::unique_ptr<HardwareProfile> profile;
  std::unique_ptr<TraceSource> source;
  std::unique_ptr<MoESystem> system;
};

Result<CellSetup> SetUp(const ExperimentOptions& options, SpanLog* log) {
  FLEXMOE_RETURN_IF_ERROR(options.Validate());
  CellSetup s;
  {
    ScopedSpan span(log, kSetupTopology);
    FLEXMOE_ASSIGN_OR_RETURN(
        Topology topo, Topology::Create(AzureA100Options(options.num_gpus)));
    s.topo = std::make_unique<Topology>(std::move(topo));
  }
  {
    ScopedSpan span(log, kSetupCalibrate);
    const GpuSpec spec;
    s.profile = std::make_unique<HardwareProfile>(s.topo.get(), spec);
    if (options.calibrate_profile) {
      Profiler profiler(s.topo.get(), spec, ProfilerOptions{});
      FLEXMOE_ASSIGN_OR_RETURN(
          *s.profile,
          profiler.Calibrate(options.model.expert_fwdbwd_flops_per_token()));
    }
    if (options.hierarchical_a2a) s.profile->set_hierarchical_a2a(true);
  }
  {
    ScopedSpan span(log, kSetupTraceSource);
    FLEXMOE_ASSIGN_OR_RETURN(s.source, BuildTraceSource(options));
  }
  {
    ScopedSpan span(log, kSetupSystem);
    FLEXMOE_ASSIGN_OR_RETURN(
        s.system, BuildSystem(options, s.topo.get(), s.profile.get()));
  }
  return s;
}

/// A cell ready to loop: its set-up, the observability handle, and (when
/// traced) the spanning wrappers the loop calls through instead.
struct CellState {
  CellSetup setup;
  std::unique_ptr<obs::Observability> observability;
  std::unique_ptr<SpannedTraceSource> spanned_source;
  std::unique_ptr<SpannedSystem> spanned_system;
  TraceSource* source = nullptr;  ///< what the loop pulls steps from
  MoESystem* system = nullptr;    ///< what the loop runs steps on
  // Serving only, built before the loop like RunExperiment builds it.
  std::unique_ptr<RequestSource> requests;
  std::unique_ptr<ForwardFloorEstimator> floor;
  std::unique_ptr<ServeExecutor> serve;
};

Status Prepare(const ExperimentOptions& options, SpanLog* log,
               int64_t* gate_assignments, CellState* state) {
  FLEXMOE_ASSIGN_OR_RETURN(state->setup, SetUp(options, log));
  CellSetup& s = state->setup;
  state->observability =
      std::make_unique<obs::Observability>(options.observability);
  s.system->SetObservability(state->observability.get());
  state->source = s.source.get();
  state->system = s.system.get();
  if (log != nullptr) {
    const bool flexmoe = ToLower(options.system) == "flexmoe";
    state->spanned_source = std::make_unique<SpannedTraceSource>(
        state->source, log, gate_assignments);
    state->spanned_system = std::make_unique<SpannedSystem>(
        state->system, log, flexmoe ? kSystemFlexMoE : kSystemStatic);
    state->source = state->spanned_source.get();
    state->system = state->spanned_system.get();
  }
  if (!options.serving.enabled) return Status::OK();

  RequestSourceOptions ro;
  ro.arrival_rate_rps = options.serving.arrival_rate_rps;
  ro.tokens_per_request = options.serving.tokens_per_request;
  ro.slo_seconds = options.serving.slo_seconds;
  ro.step_seconds = options.serving.batch_window_seconds;
  ro.scenario = options.workload.scenario;
  ro.size_mix = options.serving.size_mix;
  // RunExperiment's salt: the arrival stream is independent of routing.
  constexpr uint64_t kServingSeedSalt = 0x5e12f1c3a7b98d41ULL;
  ro.seed = options.seed ^ kServingSeedSalt;
  FLEXMOE_ASSIGN_OR_RETURN(RequestSource requests, RequestSource::Create(ro));
  state->requests = std::make_unique<RequestSource>(std::move(requests));
  const int64_t max_batch =
      options.serving.max_batch_tokens > 0
          ? options.serving.max_batch_tokens
          : options.model.tokens_per_gpu * options.num_gpus;
  state->floor = std::make_unique<ForwardFloorEstimator>(
      s.profile.get(), options.model, options.num_gpus,
      options.pipeline_chunks);
  ForwardFloorEstimator* floor = state->floor.get();
  MoESystem* system = state->system;
  ServeExecutor::LatencyEstimator estimator = [floor, system,
                                               log](int64_t tokens) {
    ScopedSpan span(log, kFloor);
    if (const ClusterHealth* h = system->cluster_health();
        h != nullptr && h->num_alive() > 0) {
      floor->set_num_gpus(h->num_alive());
    }
    return floor->Seconds(tokens);
  };
  state->serve = std::make_unique<ServeExecutor>(
      state->system, state->source, state->requests.get(), options.serving,
      max_batch, options.model.top_k, std::move(estimator));
  state->serve->set_observability(state->observability.get());
  return Status::OK();
}

/// Runs one cell: set-up, then the loop, then the report. With `log` set,
/// every layer call is spanned and observability is enabled.
Result<CellOutcome> RunCell(const ExperimentOptions& base, SpanLog* log) {
  ExperimentOptions options = base;
  if (log != nullptr) {
    options.observability.enabled = true;
    // Only the registry is read; keep the sim-time span ring small.
    options.observability.trace_capacity = 1024;
  }
  CellOutcome out;
  const bool serving = options.serving.enabled;
  CellState state;
  ScopedSpan cell_span(log, kCell);
  {
    ScopedSpan setup_span(log, kSetup);
    FLEXMOE_RETURN_IF_ERROR(
        Prepare(options, log, &out.gate_assignments, &state));
  }
  const int64_t t1 = NowNs();

  uint64_t trace_hash = kTraceHashSeed;
  ServingReport serve_report;
  {
    ScopedSpan loop_span(log, kLoop);
    if (serving) {
      ScopedSpan serve_span(log, kServe);
      FLEXMOE_ASSIGN_OR_RETURN(serve_report,
                               state.serve->Run(options.measure_steps));
      trace_hash = state.serve->trace_hash();
    } else {
      // Step boundaries are loop-level boundaries too: one clock read per
      // step, never inside a layer call.
      out.piece_s.reserve(static_cast<size_t>(options.measure_steps));
      int64_t step_start = t1;
      for (int step = 0; step < options.measure_steps; ++step) {
        const std::vector<Assignment> assignments = state.source->NextStep();
        trace_hash = HashStep(assignments, trace_hash);
        state.system->RunStep(assignments);
        const int64_t step_end = NowNs();
        out.piece_s.push_back(static_cast<double>(step_end - step_start) *
                              1e-9);
        step_start = step_end;
      }
    }
  }
  const int64_t t2 = NowNs();
  FLEXMOE_RETURN_IF_ERROR(state.observability->ExportArtifacts());

  out.loop_s = static_cast<double>(t2 - t1) * 1e-9;
  if (serving) out.piece_s = {out.loop_s};
  out.report =
      BuildReport(options, *state.setup.system, trace_hash, serve_report);
  const obs::MetricsRegistry& m = state.observability->metrics();
  CellCounters& c = out.counters;
  c.policy_invocations = m.counter("policy.invocations");
  c.policy_triggers = m.counter("policy.triggers");
  c.policy_candidates = m.counter("policy.candidates_evaluated");
  c.policy_rounds = m.counter("policy.plan_rounds");
  c.policy_ops_enqueued = m.counter("policy.ops_enqueued");
  c.serve_batches = m.counter("serve.batches");
  c.serve_chunked = m.counter("serve.chunked_admissions");
  c.serve_failed_batches = m.counter("serve.failed_batches");
  c.serve_arrived = m.counter("serve.requests_arrived");
  c.serve_shed = m.counter("serve.requests_shed");
  return out;
}

// ---- Checks -----------------------------------------------------------------

std::string Digest(const Cell& cell, const ExperimentReport& report) {
  return FormatDigest(DigestFromReport(cell.label, report));
}

/// Arrived == completed + shed + queued, for requests and for tokens.
bool LedgerHolds(const ServingReport& r) {
  return r.requests_arrived ==
             r.requests_completed + r.requests_shed +
                 r.requests_queued_at_end &&
         r.tokens_arrived ==
             r.tokens_completed + r.tokens_shed + r.tokens_queued_at_end;
}

// ---- Statistics -------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: the value
/// with exactly ten samples above it. Below 20 samples that would not be a
/// tail (it falls under the median), so the maximum stands in.
/// Returns {value, percentile}.
std::pair<double, double> Tail(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n < 20) return {v.back(), 100.0};
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) /
                         static_cast<double>(n)};
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// This process's peak resident set (VmHWM). Unlike getrusage's
/// ru_maxrss, it starts afresh at exec, so the launcher's own footprint
/// does not leak into it.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Mean over the post-warm-up steps of one StepMetrics field.
template <typename F>
double MeanAfterWarmup(const ExperimentReport& r, int warmup, F&& get) {
  const std::vector<StepMetrics>& steps = r.stats.steps();
  double sum = 0.0;
  int n = 0;
  for (size_t i = static_cast<size_t>(warmup); i < steps.size(); ++i) {
    sum += get(steps[i]);
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

// ---- JSON output ------------------------------------------------------------

class JsonObject {
 public:
  void Num(const std::string& key, double value) {
    Key(key);
    body_ += std::isfinite(value) ? StrFormat("%.17g", value) : "null";
  }
  void Str(const std::string& key, const std::string& value) {
    Key(key);
    body_ += "\"" + value + "\"";
  }
  void Raw(const std::string& key, const std::string& json) {
    Key(key);
    body_ += json;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": ";
  }
  std::string body_;
};

// ---- Modes ------------------------------------------------------------------

int RunSetupMode(const std::vector<Cell>& cells) {
  double setup_s = 0.0;
  for (const Cell& cell : cells) {
    const int64_t t0 = NowNs();
    Result<CellSetup> s = SetUp(cell.options, nullptr);
    const int64_t t1 = NowNs();
    if (!s.ok()) {
      std::fprintf(stderr, "%s: set-up failed: %s\n", cell.label.c_str(),
                   s.status().ToString().c_str());
      return 1;
    }
    setup_s += static_cast<double>(t1 - t0) * 1e-9;
  }
  JsonObject j;
  j.Num("setup_s", setup_s);
  std::printf("%s\n", j.Done().c_str());
  return 0;
}

/// Per-layer totals of the traced pass, summed over all rounds.
struct LayerTotals {
  double busy_s[kNumLayers] = {};
  double first_round_s[kNumLayers] = {};  ///< round 1 only (cold set-up)
  int64_t calls[kNumLayers] = {};
  double child_s[kNumLayers] = {};  ///< time covered by direct child spans
  std::vector<double> flexmoe_call_ms;
  std::vector<double> static_call_ms;
};

LayerTotals Aggregate(const std::vector<Span>& spans, size_t cells_per_round) {
  LayerTotals t;
  for (const Span& s : spans) {
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.busy_s[s.layer] += d;
    if (static_cast<size_t>(s.cell) < cells_per_round) {
      t.first_round_s[s.layer] += d;
    }
    t.calls[s.layer] += 1;
    if (s.parent >= 0) {
      t.child_s[spans[static_cast<size_t>(s.parent)].layer] += d;
    }
    if (s.layer == kSystemFlexMoE) t.flexmoe_call_ms.push_back(d * 1e3);
    if (s.layer == kSystemStatic) t.static_call_ms.push_back(d * 1e3);
  }
  return t;
}

Status WriteSpans(const std::string& path, const std::vector<Cell>& cells,
                  const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal(StrFormat("cannot open '%s'", path.c_str()));
  }
  std::fprintf(f, "# index\tcell\tlabel\tname\tparent\tstart_ns\tend_ns\n");
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%d\t%s\t%s\t%d\t%lld\t%lld\n", i, s.cell,
                 cells[static_cast<size_t>(s.cell) % cells.size()]
                     .label.c_str(),
                 kLayerNames[s.layer], s.parent,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? Status::OK()
            : Status::Internal(StrFormat("cannot write '%s'", path.c_str()));
}

/// The simulated outcomes of round 1 (deterministic for a seed), summed
/// or averaged over the workload's cells.
struct Outcomes {
  // FlexMoE cells, averaged (time-to-quality: geometric mean).
  double flexmoe_step_ms = 0.0;
  double flexmoe_hours = 0.0;
  double flexmoe_attainment = 0.0;
  double flexmoe_p50_ms = 0.0;
  double flexmoe_p99_ms = 0.0;
  double flexmoe_goodput = 0.0;
  double sim_a2a_ms = 0.0;
  double sim_compute_ms = 0.0;
  double sim_sync_ms = 0.0;
  double sim_non_moe_ms = 0.0;
  double sim_adjust_block_ms = 0.0;
  double sim_balance = 0.0;
  double sim_expert_efficiency = 0.0;
  double sim_gpu_utilization = 0.0;
  double sim_token_efficiency = 0.0;
  // Summed over cells.
  int64_t ops_applied = 0;        ///< FlexMoE cells
  int64_t static_recirculated = 0;  ///< static serving cells
  int64_t static_tokens = 0;        ///< static serving cells
  CellCounters counters;  ///< from the traced pass (zero when untraced)
};

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double GeoMean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return v.empty() ? 0.0 : std::exp(s / static_cast<double>(v.size()));
}

Outcomes Summarize(const std::vector<Cell>& cells,
                   const std::vector<CellOutcome>& first,
                   const std::vector<CellOutcome>& traced_first) {
  Outcomes o;
  std::vector<double> step_ms, hours, attainment, p50, p99, goodput, a2a,
      compute, sync, non_moe, adjust, balance, expert_eff, util, token_eff;
  for (size_t i = 0; i < cells.size(); ++i) {
    const ExperimentReport& r = first[i].report;
    if (r.system.empty()) continue;  // failed in round 1
    const CellCounters& c = traced_first[i].counters;
    CellCounters& sum = o.counters;
    sum.serve_batches += c.serve_batches;
    sum.serve_chunked += c.serve_chunked;
    sum.serve_failed_batches += c.serve_failed_batches;
    sum.serve_arrived += c.serve_arrived;
    sum.serve_shed += c.serve_shed;
    if (ToLower(cells[i].options.system) != "flexmoe") {
      if (r.serving) {
        for (const StepMetrics& s : r.stats.steps()) {
          o.static_recirculated += s.tokens_recirculated;
          o.static_tokens += s.tokens_total;
        }
      }
      continue;
    }
    sum.policy_invocations += c.policy_invocations;
    sum.policy_triggers += c.policy_triggers;
    sum.policy_candidates += c.policy_candidates;
    sum.policy_rounds += c.policy_rounds;
    sum.policy_ops_enqueued += c.policy_ops_enqueued;
    o.ops_applied += r.stats.TotalOpsApplied();
    step_ms.push_back(r.mean_step_seconds * 1e3);
    if (r.serving) {
      attainment.push_back(r.serve.slo_attainment);
      p50.push_back(r.serve.p50_latency_seconds * 1e3);
      p99.push_back(r.serve.p99_latency_seconds * 1e3);
      goodput.push_back(r.serve.goodput_tokens_per_sec);
    } else {
      hours.push_back(r.hours_to_target);
    }
    const int warmup = cells[i].options.warmup_steps;
    auto mean_ms = [&](double StepMetrics::*field) {
      return 1e3 * MeanAfterWarmup(r, warmup, [field](const StepMetrics& s) {
               return s.*field;
             });
    };
    a2a.push_back(mean_ms(&StepMetrics::a2a_seconds));
    compute.push_back(mean_ms(&StepMetrics::compute_seconds));
    sync.push_back(mean_ms(&StepMetrics::sync_seconds));
    non_moe.push_back(mean_ms(&StepMetrics::non_moe_seconds));
    adjust.push_back(mean_ms(&StepMetrics::adjust_block_seconds));
    balance.push_back(r.mean_balance_ratio);
    expert_eff.push_back(r.mean_expert_efficiency);
    util.push_back(r.mean_gpu_utilization);
    token_eff.push_back(r.mean_token_efficiency);
  }
  o.flexmoe_step_ms = Mean(step_ms);
  o.flexmoe_hours = GeoMean(hours);
  o.flexmoe_attainment = Mean(attainment);
  o.flexmoe_p50_ms = Mean(p50);
  o.flexmoe_p99_ms = Mean(p99);
  o.flexmoe_goodput = Mean(goodput);
  o.sim_a2a_ms = Mean(a2a);
  o.sim_compute_ms = Mean(compute);
  o.sim_sync_ms = Mean(sync);
  o.sim_non_moe_ms = Mean(non_moe);
  o.sim_adjust_block_ms = Mean(adjust);
  o.sim_balance = Mean(balance);
  o.sim_expert_efficiency = Mean(expert_eff);
  o.sim_gpu_utilization = Mean(util);
  o.sim_token_efficiency = Mean(token_eff);
  return o;
}

/// FlexMoE against every static baseline of its scenario: time-to-quality
/// for training, goodput for serving. Informational only: it may
/// legitimately vary by seed. Cells come in scenario groups of four with
/// FlexMoE last (BuildCells).
void PrintDifferential(const std::vector<Cell>& cells,
                       const std::vector<CellOutcome>& first) {
  for (size_t i = 0; i + 3 < cells.size(); i += 4) {
    const ExperimentReport& flex = first[i + 3].report;
    if (flex.system.empty()) continue;
    bool wins = true;
    for (size_t b = i; b < i + 3; ++b) {
      const ExperimentReport& base = first[b].report;
      wins = wins && (flex.serving ? flex.serve.goodput_tokens_per_sec >
                                         base.serve.goodput_tokens_per_sec
                                   : flex.hours_to_target <
                                         base.hours_to_target);
    }
    std::printf("differential %-16s FlexMoE %s every static baseline on %s\n",
                cells[i].scenario.c_str(), wins ? "beats" : "does not beat",
                flex.serving ? "goodput" : "time-to-quality");
  }
}

/// Loop wall attributed to the serve layer itself: ServeExecutor::Run
/// minus the gate, system and floor calls inside it.
double ServeSelfS(const LayerTotals& t) {
  return t.busy_s[kServe] - t.child_s[kServe];
}

/// Loop wall not covered by any timed layer call.
double UnattributedS(const LayerTotals& t) {
  return t.busy_s[kLoop] - t.busy_s[kGate] - t.busy_s[kSystemFlexMoE] -
         t.busy_s[kSystemStatic] - t.busy_s[kFloor] - ServeSelfS(t);
}

/// The per-layer metrics as a JSON object. Wall times are per round,
/// set-up is round 1's (cold, as setup_s), counters and sim.* come from
/// round 1 (they repeat exactly).
std::string LayerJson(const LayerTotals& t, const Outcomes& o, int rounds,
                      const std::vector<CellOutcome>& traced_first,
                      double trace_overhead) {
  const double per_round = 1.0 / rounds;
  const double loop = t.busy_s[kLoop];
  const double system_busy =
      t.busy_s[kSystemFlexMoE] + t.busy_s[kSystemStatic];
  const auto flex_tail = Tail(t.flexmoe_call_ms);
  const auto static_tail = Tail(t.static_call_ms);
  int64_t gate_assignments = 0;
  for (const CellOutcome& c : traced_first) {
    gate_assignments += c.gate_assignments;
  }
  const CellCounters& c = o.counters;
  auto count = [](int64_t v) { return static_cast<double>(v); };
  JsonObject p;
  p.Num("setup.topology_s", t.first_round_s[kSetupTopology]);
  p.Num("setup.calibrate_s", t.first_round_s[kSetupCalibrate]);
  p.Num("setup.trace_source_s", t.first_round_s[kSetupTraceSource]);
  p.Num("setup.system_s", t.first_round_s[kSetupSystem]);
  p.Num("gate.busy_s", t.busy_s[kGate] * per_round);
  p.Num("gate.calls", count(t.calls[kGate]) * per_round);
  p.Num("gate.tokens_per_s",
        Ratio(count(gate_assignments), t.busy_s[kGate] * per_round));
  p.Num("gate.share", Ratio(t.busy_s[kGate], loop));
  p.Num("system.flexmoe.busy_s", t.busy_s[kSystemFlexMoE] * per_round);
  p.Num("system.flexmoe.calls", count(t.calls[kSystemFlexMoE]) * per_round);
  p.Num("system.flexmoe.step_ms_p50", Median(t.flexmoe_call_ms));
  p.Num("system.flexmoe.step_ms_tail", flex_tail.first);
  p.Num("system.flexmoe.tail_pct", flex_tail.second);
  p.Num("system.flexmoe.samples", count(t.flexmoe_call_ms.size()));
  p.Num("system.static.busy_s", t.busy_s[kSystemStatic] * per_round);
  p.Num("system.static.calls", count(t.calls[kSystemStatic]) * per_round);
  p.Num("system.static.step_ms_p50", Median(t.static_call_ms));
  p.Num("system.static.step_ms_tail", static_tail.first);
  p.Num("system.static.tail_pct", static_tail.second);
  p.Num("system.static.samples", count(t.static_call_ms.size()));
  p.Num("system.share", Ratio(system_busy, loop));
  p.Num("policy.invocations", count(c.policy_invocations));
  p.Num("policy.triggers", count(c.policy_triggers));
  p.Num("policy.candidates_evaluated", count(c.policy_candidates));
  p.Num("policy.plan_rounds", count(c.policy_rounds));
  p.Num("policy.ops_enqueued", count(c.policy_ops_enqueued));
  p.Num("policy.rounds_per_candidate",
        Ratio(count(c.policy_rounds), count(c.policy_candidates)));
  p.Num("placement.ops_applied", count(o.ops_applied));
  p.Num("placement.applied_ratio",
        Ratio(count(o.ops_applied), count(c.policy_ops_enqueued)));
  p.Num("serve.admission_self_s", ServeSelfS(t) * per_round);
  p.Num("serve.batches", count(c.serve_batches));
  p.Num("serve.chunked_admissions", count(c.serve_chunked));
  p.Num("serve.failed_batches", count(c.serve_failed_batches));
  p.Num("serve.shed_ratio",
        Ratio(count(c.serve_shed), count(c.serve_arrived)));
  p.Num("cost_model.floor_calls", count(t.calls[kFloor]) * per_round);
  p.Num("cost_model.floor_s", t.busy_s[kFloor] * per_round);
  p.Num("sim.a2a_ms", o.sim_a2a_ms);
  p.Num("sim.compute_ms", o.sim_compute_ms);
  p.Num("sim.sync_ms", o.sim_sync_ms);
  p.Num("sim.non_moe_ms", o.sim_non_moe_ms);
  p.Num("sim.adjust_block_ms", o.sim_adjust_block_ms);
  p.Num("sim.balance_ratio", o.sim_balance);
  p.Num("sim.expert_efficiency", o.sim_expert_efficiency);
  p.Num("sim.gpu_utilization", o.sim_gpu_utilization);
  p.Num("sim.token_efficiency", o.sim_token_efficiency);
  p.Num("sim.recirculated_ratio",
        Ratio(count(o.static_recirculated), count(o.static_tokens)));
  p.Num("harness.self_share", Ratio(UnattributedS(t), loop));
  p.Num("trace_overhead_ratio", trace_overhead);
  return p.Done();
}

/// The attribution report: where the traced loop wall went.
void PrintAttribution(const std::string& workload, const LayerTotals& t,
                      int rounds) {
  const double per_round = 1.0 / rounds;
  const double loop = t.busy_s[kLoop];
  std::printf("attribution (%s, traced, %d round%s, loop %.3f s/round)\n",
              workload.c_str(), rounds, rounds == 1 ? "" : "s",
              loop * per_round);
  const std::pair<const char*, double> rows[] = {
      {"gate", t.busy_s[kGate]},
      {"system.flexmoe", t.busy_s[kSystemFlexMoE]},
      {"system.static", t.busy_s[kSystemStatic]},
      {"serve admission", ServeSelfS(t)},
      {"cost_model.floor", t.busy_s[kFloor]},
      {"harness (unattributed)", UnattributedS(t)},
  };
  for (const auto& [name, busy] : rows) {
    std::printf("  %-24s %10.4f s/round  %6.2f%%\n", name, busy * per_round,
                100.0 * Ratio(busy, loop));
  }
  if (Ratio(UnattributedS(t), loop) > 0.10) {
    std::printf("  WARNING: %.1f%% of the loop wall is unattributed\n",
                100.0 * Ratio(UnattributedS(t), loop));
  }
}

/// One pass (timed or traced) over the workload's rounds.
struct Pass {
  explicit Pass(size_t cells) : first(cells), best_piece_s(cells) {}

  /// Records a cell's outcome: round 1 is kept, and every loop piece keeps
  /// its fastest wall. Returns false when a later round's digest differs.
  bool Track(const Cell& cell, size_t i, CellOutcome outcome) {
    std::vector<double>& best = best_piece_s[i];
    if (best.empty()) best = outcome.piece_s;
    for (size_t k = 0; k < best.size() && k < outcome.piece_s.size(); ++k) {
      best[k] = std::min(best[k], outcome.piece_s[k]);
    }
    if (first[i].report.system.empty()) {
      first[i] = std::move(outcome);
      return true;
    }
    return Digest(cell, outcome.report) == Digest(cell, first[i].report);
  }

  /// The loop wall of one round made of each piece's fastest repeat.
  double BestRoundS() const {
    double sum = 0.0;
    for (const std::vector<double>& pieces : best_piece_s) {
      for (double piece : pieces) sum += piece;
    }
    return sum;
  }

  std::vector<CellOutcome> first;  ///< round 1 (empty report: cell failed)
  std::vector<std::vector<double>> best_piece_s;  ///< per cell, per piece
};

int RunMeasuredMode(const std::string& workload,
                    const std::vector<Cell>& cells, bool traced,
                    double seconds, const std::string& spans_path) {
  SpanLog log;
  const size_t n = cells.size();
  std::vector<std::string> problems(n);  // first failure per cell
  auto fail = [&](size_t i, const std::string& why) {
    if (problems[i].empty()) problems[i] = why;
  };
  // The traced mode interleaves a traced and a timed run of every cell, so
  // their ratio (the tracing overhead) sees the same host conditions. The
  // traced run goes first so its round-1 set-up is the cold one.
  Pass timed(n), spanned(n);
  std::vector<std::pair<Pass*, SpanLog*>> passes;
  if (traced) passes.emplace_back(&spanned, &log);
  passes.emplace_back(&timed, nullptr);

  int rounds = 0;
  double loop_total = 0.0;
  double loop_s = 0.0;  // the last round's loop wall
  do {
    loop_s = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (auto& [pass, span_log] : passes) {
        log.set_cell(static_cast<int>(rounds * n + i));
        Result<CellOutcome> r = RunCell(cells[i].options, span_log);
        if (!r.ok()) {
          fail(i, "status " + r.status().ToString());
          continue;
        }
        loop_s += r->loop_s;
        if (!pass->Track(cells[i], i, *std::move(r))) {
          fail(i, StrFormat("round %d digest differs from round 1",
                            rounds + 1));
        }
      }
    }
    ++rounds;
    loop_total += loop_s;
    // Whole rounds only: stop before a round that would end past the budget.
  } while (loop_total + loop_s <= seconds);

  // Output checks on round 1.
  const std::vector<CellOutcome>& first = timed.first;
  int64_t steps = 0;  // simulated steps (or microbatches) per round
  std::map<std::string, uint64_t> scenario_hash;
  for (size_t i = 0; i < n; ++i) {
    const ExperimentReport& r = first[i].report;
    if (r.system.empty()) continue;  // failed in round 1
    steps += r.stats.num_steps();
    if (r.serving && !LedgerHolds(r.serve)) fail(i, "serving ledger leaks");
    if (!r.serving) {
      auto [it, inserted] =
          scenario_hash.emplace(cells[i].scenario, r.trace_hash);
      if (!inserted && it->second != r.trace_hash) {
        fail(i, "trace_hash differs from the scenario's other systems");
      }
    }
  }
  // Equivalence: every pass against the same options through
  // RunExperiment (observability off, so the traced pass also shows that
  // tracing does not perturb the simulation).
  for (size_t i = 0; i < n; ++i) {
    if (!problems[i].empty()) continue;
    const Result<ExperimentReport> ref = RunExperiment(cells[i].options);
    if (!ref.ok()) {
      fail(i, "RunExperiment " + ref.status().ToString());
      continue;
    }
    const std::string want = Digest(cells[i], *ref);
    for (const auto& [pass, span_log] : passes) {
      const std::string got = Digest(cells[i], pass->first[i].report);
      if (got != want) {
        fail(i, StrFormat("%s digest differs from RunExperiment:\n"
                          "  runner:        %s\n  RunExperiment: %s",
                          span_log != nullptr ? "traced" : "timed",
                          got.c_str(), want.c_str()));
      }
    }
  }

  int failed = 0;
  for (size_t i = 0; i < n; ++i) {
    if (problems[i].empty()) continue;
    ++failed;
    std::printf("FAIL %s: %s\n", cells[i].label.c_str(), problems[i].c_str());
  }

  const Outcomes o = Summarize(cells, first, spanned.first);
  PrintDifferential(cells, first);

  JsonObject j;
  j.Str("workload", workload);
  j.Str("mode", traced ? "traced" : "timed");
  j.Num("attempted", static_cast<double>(n));
  j.Num("failed", failed);
  j.Num("rounds", rounds);
  j.Num("sim_steps_per_s",
        Ratio(static_cast<double>(steps), timed.BestRoundS()));
  j.Num("peak_rss_mb", PeakRssMb());
  j.Num("flexmoe_sim_step_ms", o.flexmoe_step_ms);
  j.Num("flexmoe_hours_to_target", o.flexmoe_hours);
  j.Num("flexmoe_slo_attainment", o.flexmoe_attainment);
  j.Num("flexmoe_latency_p50_ms", o.flexmoe_p50_ms);
  j.Num("flexmoe_latency_p99_ms", o.flexmoe_p99_ms);
  j.Num("flexmoe_goodput_tok_per_s", o.flexmoe_goodput);
  j.Num("failed_cell_ratio", Ratio(failed, static_cast<double>(n)));
  if (traced) {
    const LayerTotals t = Aggregate(log.spans(), n);
    const double overhead = Ratio(spanned.BestRoundS(), timed.BestRoundS());
    j.Raw("layers", LayerJson(t, o, rounds, spanned.first, overhead));
    PrintAttribution(workload, t, rounds);
    std::printf("trace_overhead_ratio %.4f (best round: traced %.4f s, "
                "timed %.4f s)\n",
                overhead, spanned.BestRoundS(), timed.BestRoundS());
    if (!spans_path.empty()) {
      const Status st = WriteSpans(spans_path, cells, log.spans());
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
    }
  }
  std::printf("%s\n", j.Done().c_str());
  return failed == 0 ? 0 : 1;
}

// ---- CLI --------------------------------------------------------------------

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\n"
               "usage: perfbench_runner --workload train-catalog|large-ep|"
               "serve-mix --seed N --mode setup|timed|traced [--seconds S] "
               "[--spans PATH]\n",
               why.c_str());
  return 2;
}

/// Parses a whole decimal unsigned integer (no sign, no trailing text).
bool ParseUint(const char* s, uint64_t* out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

int Main(int argc, char** argv) {
  std::string workload, mode, spans;
  uint64_t seed = 0, seconds = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--mode") {
      mode = value;
    } else if (flag == "--spans") {
      spans = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &seed)) return Usage("--seed needs an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &seconds)) {
        return Usage("--seconds needs an integer");
      }
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    return Usage("unknown workload '" + workload + "'");
  }
  if (!have_seed) return Usage("--seed is required");
  const std::vector<Cell> cells = BuildCells(workload, seed);
  if (mode == "setup") return RunSetupMode(cells);
  if (mode == "timed" || mode == "traced") {
    return RunMeasuredMode(workload, cells, mode == "traced",
                           static_cast<double>(seconds), spans);
  }
  return Usage("unknown mode '" + mode + "'");
}

}  // namespace
}  // namespace flexmoe

int main(int argc, char** argv) { return flexmoe::Main(argc, argv); }
