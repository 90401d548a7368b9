// Observability bundle: the span tracer, metrics registry, and policy
// decision audit log behind one per-run handle (DESIGN.md Section 9).
//
// Wiring model: RunExperiment (or a bench/test) owns one Observability per
// run and installs a raw pointer into the system under test via
// MoESystem::SetObservability; the system forwards it to its StepExecutor,
// ElasticController and (serving) ServeExecutor. Instrumented call sites
// fetch the handle through a null/enabled-checked accessor, so the DISABLED
// path is one predictable branch that allocates nothing: a run with a
// disabled handle makes exactly the heap allocations of a run with none
// (observability_integration_test).
//
// Determinism contract: with observability enabled, every exported artifact
// (Chrome trace, metrics snapshot, decision JSONL) is a pure function of
// the simulated run — sim timestamps only, sorted snapshot order, fixed
// printf formats. Wall-clock appears in the trace export only when
// `include_wall_clock` is explicitly requested.

#ifndef FLEXMOE_OBS_OBSERVABILITY_H_
#define FLEXMOE_OBS_OBSERVABILITY_H_

#include <string>

#include "obs/decision_log.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "util/status.h"

namespace flexmoe {
namespace obs {

/// \brief Per-run observability configuration (ExperimentOptions.
/// observability; bench flags --trace-out / --metrics-out /
/// --decisions-out).
struct ObservabilityOptions {
  /// Master switch. Disabled, a system behaves exactly as if no handle were
  /// installed (and the instrumented hot paths take the null branch).
  bool enabled = false;
  /// Chrome trace-event JSON output path ("" = keep in memory only).
  std::string trace_out;
  /// Metrics-registry JSON snapshot output path.
  std::string metrics_out;
  /// Policy decision audit JSONL output path.
  std::string decisions_out;
  /// Include per-event wall-clock in the trace export (breaks
  /// byte-determinism; off by default).
  bool include_wall_clock = false;
  /// Trace ring capacity in events.
  int64_t trace_capacity = static_cast<int64_t>(Tracer::kDefaultCapacity);

  Status Validate() const;
};

/// \brief One run's tracer + registry + decision log.
class Observability {
 public:
  explicit Observability(const ObservabilityOptions& options);

  bool enabled() const { return options_.enabled; }
  const ObservabilityOptions& options() const { return options_; }

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  DecisionLog& decisions() { return decisions_; }
  const DecisionLog& decisions() const { return decisions_; }

  /// The three exportable artifacts as strings (what ExportArtifacts
  /// writes; tests assert on these directly).
  std::string TraceJson() const {
    return tracer_.ToChromeJson(options_.include_wall_clock);
  }
  std::string MetricsJson() const { return metrics_.SnapshotJson(); }
  std::string DecisionsJsonl() const { return decisions_.ToJsonl(); }

  /// Writes each artifact whose output path is configured; paths left
  /// empty are skipped. First failure wins.
  Status ExportArtifacts() const;

 private:
  ObservabilityOptions options_;
  Tracer tracer_;
  MetricsRegistry metrics_;
  DecisionLog decisions_;
};

/// \brief Resolves the null-checked fast path in one place: the tracer to
/// record into, or nullptr when `o` is absent or disabled.
inline Tracer* TracerOf(Observability* o) {
  return o != nullptr && o->enabled() ? &o->tracer() : nullptr;
}
inline MetricsRegistry* MetricsOf(Observability* o) {
  return o != nullptr && o->enabled() ? &o->metrics() : nullptr;
}
inline DecisionLog* DecisionsOf(Observability* o) {
  return o != nullptr && o->enabled() ? &o->decisions() : nullptr;
}

}  // namespace obs
}  // namespace flexmoe

#endif  // FLEXMOE_OBS_OBSERVABILITY_H_
