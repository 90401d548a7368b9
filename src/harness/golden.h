// Golden-run metrics digests: a compact, text-serializable summary of one
// experiment cell, pinned in version control so behavior drift of the
// workload catalog or the systems shows up as a test diff instead of a
// silent regression (DESIGN.md Section 7 documents the policy).
//
// A digest captures what the differential tests assert on — the identity
// of the consumed token stream (trace_hash), the balance/efficiency
// metrics, and time-to-quality — at full double precision, so comparing a
// fresh run against a committed digest is exact for a deterministic
// simulator.

#ifndef FLEXMOE_HARNESS_GOLDEN_H_
#define FLEXMOE_HARNESS_GOLDEN_H_

#include <string>
#include <vector>

#include "harness/experiment.h"

namespace flexmoe {

/// \brief Compact summary of one experiment run.
struct MetricsDigest {
  std::string label;     ///< caller-chosen cell id, e.g. "bursty/flexmoe"
  std::string system;
  std::string workload;  ///< scenario name or "replay:<path>"
  int num_gpus = 0;
  int steps = 0;
  uint64_t trace_hash = 0;

  double mean_step_seconds = 0.0;
  double throughput_tokens_per_sec = 0.0;
  double mean_balance_ratio = 0.0;
  double mean_token_efficiency = 0.0;
  double mean_expert_efficiency = 0.0;
  double mean_gpu_utilization = 0.0;
  double hours_to_target = 0.0;
  int64_t ops_applied = 0;
  int64_t tokens_dropped = 0;

  /// Serving-mode cells append the fields below (`mode=serve` in the
  /// serialized line); training cells keep the pre-serving line format
  /// byte-for-byte, so committed training goldens never re-render.
  bool serving = false;
  int64_t requests_completed = 0;
  int64_t batches = 0;
  int64_t failed_batches = 0;
  int64_t tokens_recirculated = 0;
  double slo_attainment = 0.0;
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
  double mean_latency_seconds = 0.0;
  /// Honest-accounting extension (DESIGN.md Section 8.7): the arrived
  /// denominator, the shed/backlog violation counts, and goodput.
  int64_t requests_arrived = 0;
  int64_t requests_shed = 0;
  int64_t requests_queued_past_deadline = 0;
  double goodput_tokens_per_sec = 0.0;
};

/// \brief Summarizes a report under the given cell label.
MetricsDigest DigestFromReport(const std::string& label,
                               const ExperimentReport& report);

/// \brief THE canonical quick cell the committed workload goldens pin
/// (tests/goldens/): one small fixed-seed run of `system` under
/// `scenario`, with the scenario's time parameters scaled to its 60-step
/// budget so every regime actually expresses inside the run. Used by both
/// `bench_paper --quick --figure workload-suite` and workload_golden_test.
ExperimentOptions WorkloadGoldenCell(const std::string& scenario,
                                     const std::string& system);

/// \brief THE canonical quick serving cell the committed serving goldens
/// pin: the WorkloadGoldenCell cluster run as a latency-SLO serving
/// workload (continuous batching, no optimizer step), with arrival rate /
/// SLO / window chosen so the bursty and multi-tenant regimes generate
/// real backlog. Used by `bench_paper --quick --figure serving-slo`,
/// serving_golden_test, and failure_injection_test's failure_during_serving
/// case.
ExperimentOptions ServingGoldenCell(const std::string& scenario,
                                    const std::string& system);

/// \brief The ServingGoldenCell cluster under the heavy-tailed request-
/// size mix with deadline-aware shedding enabled — the honest-accounting
/// configuration (DESIGN.md Section 8.7). Request sizes span chat turns to
/// batch-inference jobs larger than the batch token cap (so the chunked
/// admission path runs), the offered token load matches the fixed-size
/// cell's, and hopeless requests are shed instead of served dead. Pinned
/// per (scenario x system) in tests/goldens/serving_sizemix_<scenario>
/// .golden; `admission_policy` selects EDF (default) or SJF.
ExperimentOptions ServingSizeMixCell(const std::string& scenario,
                                     const std::string& system,
                                     const std::string& admission_policy
                                         = "edf");

/// \brief One-line "key=value ..." rendering (the serialized form).
std::string FormatDigest(const MetricsDigest& digest);

/// \brief Parses one FormatDigest line.
Result<MetricsDigest> ParseDigest(const std::string& line);

/// \brief Writes digests to `path`, one line each plus a header comment.
Status SaveDigests(const std::vector<MetricsDigest>& digests,
                   const std::string& path);

/// \brief Loads every digest line of `path` (comments/blank lines skipped).
Result<std::vector<MetricsDigest>> LoadDigests(const std::string& path);

/// \brief Compares a fresh digest against a golden one: string/integer
/// fields (including trace_hash) must match exactly, floating-point
/// metrics within `rel_tol` relative error. Returns a descriptive error
/// naming the first mismatching field.
Status CompareDigests(const MetricsDigest& golden, const MetricsDigest& fresh,
                      double rel_tol);

}  // namespace flexmoe

#endif  // FLEXMOE_HARNESS_GOLDEN_H_
