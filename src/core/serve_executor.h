// ServeExecutor: latency-SLO serving with continuous batching (DESIGN.md
// Section 8). Requests arrive from a RequestSource; the executor admits
// them into microbatches under a deadline- or size-ordered discipline and
// a token cap, shapes each microbatch's routing from the next TraceSource
// step (rescaled to the admitted token count), and executes it through the
// system's forward-only ServeMicrobatch path. No optimizer step exists;
// the metrics are per-request latency against the SLO and goodput over
// the ARRIVED traffic.
//
// Batching discipline (pinned by serve_executor_test's property tests):
//  * WORK-CONSERVING UNDER BACKLOG — if requests are waiting the moment
//    the engine goes idle, the next batch launches immediately (their
//    batching window was the previous batch's execution).
//  * From an idle engine, the batcher waits exactly batch_window_seconds
//    past the first arrival before launching, collecting what lands.
//  * ADMISSION ORDER — "edf" (deadline, then arrival, then id) or "sjf"
//    (remaining tokens, then deadline, arrival, id): no waiting request is
//    ever passed over in favor of one that orders later.
//  * OVERSIZED REQUESTS CHUNK — a request larger than the remaining cap
//    never blocks the engine: when it heads an otherwise-empty batch it is
//    admitted as a cap-sized chunk and its remainder re-enters the queue
//    (same deadline and arrival), so it drains across consecutive batches
//    and completes when its last chunk does. Requests that fit are never
//    split.
//  * DEADLINE-AWARE SHEDDING (optional) — with `shed_unreachable` and a
//    latency estimator, a request popped for admission whose deadline
//    precedes even its best-case completion (the cost model's
//    contention-free forward estimate, chunked under the cap) is REJECTED
//    and counted, never executed and never silently dropped.
//  * TOKEN CONSERVATION — every arrived token is completed, shed, or still
//    queued at the end; a batch that loses tokens to a fault mid-execution
//    is retried wholesale (admitted chunks re-enter the queue), with the
//    retry latency charged to the original arrival.

#ifndef FLEXMOE_CORE_SERVE_EXECUTOR_H_
#define FLEXMOE_CORE_SERVE_EXECUTOR_H_

#include <functional>
#include <string>
#include <vector>

#include "core/system.h"
#include "gate/request_source.h"
#include "gate/trace_source.h"
#include "obs/observability.h"

namespace flexmoe {

/// \brief Serving-mode configuration (harness-level; see
/// ExperimentOptions::serving).
struct ServingOptions {
  /// Master switch: run the experiment as a serving workload.
  bool enabled = false;
  /// Mean request arrival rate before scenario modulation; <= 0 is invalid
  /// when enabled (benches derive it from the model's token throughput).
  double arrival_rate_rps = 0.0;
  int64_t tokens_per_request = 256;
  /// Per-request latency SLO.
  double slo_seconds = 0.0;
  /// Batching window from an idle engine; also the wall-clock length of
  /// one scenario step for arrival-rate modulation.
  double batch_window_seconds = 0.0;
  /// Token cap per microbatch; 0 derives model.tokens_per_gpu * num_gpus.
  int64_t max_batch_tokens = 0;
  /// Admission order: "edf" (earliest deadline first) or "sjf" (shortest
  /// remaining job first, deadline tie-break).
  std::string admission_policy = "edf";
  /// Deadline-aware load shedding: reject (and count) requests whose
  /// deadline is unreachable even at the cost model's best-case forward
  /// latency. Requires the executor's latency estimator.
  bool shed_unreachable = false;
  /// Per-request token sizes, "fixed" or "heavy" (gate/request_source.h);
  /// "fixed" preserves the legacy single-size stream byte-identically.
  std::string size_mix = "fixed";

  Status Validate() const;
};

/// \brief One batch's audit record (drives the property tests).
struct ServeBatchRecord {
  int64_t batch = 0;
  double engine_idle = 0.0;  ///< when the executor became free
  double launch = 0.0;
  double end = 0.0;
  int64_t tokens = 0;          ///< admitted tokens (not assignments)
  int num_requests = 0;        ///< admitted entries (chunks count once)
  int chunked = 0;             ///< admitted entries that are partial chunks
  int shed = 0;                ///< requests shed while forming this batch
  int backlog_at_idle = 0;     ///< requests waiting when the engine freed
  int left_waiting = 0;        ///< requests still queued after admission
  /// The heap-top waiting request's deadline (+inf when none) and the
  /// latest deadline among admitted ones (-inf when none). The heap top
  /// is the first waiting request in the ACTIVE policy's order, so under
  /// EDF this is the earliest waiting deadline and admission implies
  /// max_admitted_deadline <= min_waiting_deadline; under SJF the field
  /// is the smallest-remaining waiter's deadline and carries no ordering
  /// guarantee.
  double min_waiting_deadline = 0.0;
  double max_admitted_deadline = 0.0;
  /// Remaining-size twins (heap-top waiter's remaining, max admitted
  /// remaining at admission): under SJF admission implies
  /// max_admitted_remaining <= min_waiting_remaining; under EDF the
  /// waiting side carries no ordering guarantee.
  int64_t min_waiting_remaining = 0;
  int64_t max_admitted_remaining = 0;
  bool failed = false;         ///< fault mid-batch; batch was re-enqueued
};

/// \brief Aggregated serving outcome.
///
/// Accounting identities (pinned by serve_executor_test):
///   requests_arrived == requests_completed + requests_shed
///                       + requests_queued_at_end
///   tokens_arrived   == tokens_completed + tokens_shed
///                       + tokens_queued_at_end
/// SLO attainment is denominated over ARRIVED traffic whose outcome is
/// decided: completed requests, shed requests, and requests still queued
/// whose deadline already passed the horizon (a deeply backlogged run can
/// no longer hide its backlog behind the measurement window). Requests
/// queued with a still-feasible deadline are censored, not violations.
struct ServingReport {
  int64_t requests_arrived = 0;    ///< pulled from the source into the queue
  int64_t requests_completed = 0;
  int64_t requests_shed = 0;       ///< rejected: deadline unreachable
  int64_t requests_queued_at_end = 0;  ///< admitted to the queue, never ran
  /// Queued at the end with deadline <= the horizon: counted as
  /// violations (the survivor-bias fix).
  int64_t requests_queued_past_deadline = 0;
  /// Completed requests that missed their deadline.
  int64_t requests_completed_late = 0;
  int64_t tokens_arrived = 0;
  int64_t tokens_completed = 0;    ///< executed tokens (partial chunks count)
  int64_t tokens_shed = 0;         ///< unexecuted remainder of shed requests
  int64_t tokens_queued_at_end = 0;
  /// Full sizes of requests completed within their SLO (the goodput
  /// numerator; partial progress on late/shed requests does not count).
  int64_t tokens_completed_within_slo = 0;
  int64_t batches = 0;
  int64_t failed_batches = 0;      ///< fault retries (batches re-run)
  int64_t chunked_admissions = 0;  ///< cap-sized partial chunks admitted
  int64_t tokens_recirculated = 0; ///< static layouts' second-pass volume
  /// completed-late + shed + queued-past-deadline (see attainment note).
  int64_t slo_violations = 0;
  /// Fraction of decided arrived requests that met their deadline.
  double slo_attainment = 1.0;
  double mean_latency_seconds = 0.0;
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
  double max_latency_seconds = 0.0;
  double mean_batch_seconds = 0.0;
  double mean_batch_tokens = 0.0;
  /// First launch to last completion.
  double span_seconds = 0.0;
  double served_tokens_per_sec = 0.0;
  /// Goodput: SLO-met tokens per second of span, over arrived traffic.
  double goodput_tokens_per_sec = 0.0;
};

/// \brief Deterministically rescales `src` to exactly `target_total`
/// token-assignments, preserving cell proportions (floor + largest
/// remainder, ties broken by cell index). Integer-exact: the result's
/// Total() == target_total, and cells that were zero stay zero.
/// Overflow-safe: the per-cell product count * target_total is taken in
/// 128-bit arithmetic, so billion-token traces rescale to billion-token
/// batches without wrapping.
Assignment ScaleAssignmentTo(const Assignment& src, int64_t target_total);

/// \brief Drives a MoESystem through a serving run.
class ServeExecutor {
 public:
  /// Best-case forward latency (seconds) of a microbatch of `tokens`
  /// admitted tokens; the shedding test. See
  /// EstimateForwardMicrobatchSeconds (core/cost_model.h) for the cost
  /// model's implementation the harness wires in.
  using LatencyEstimator = std::function<double(int64_t tokens)>;

  /// All pointers must outlive the executor. `max_batch_tokens` must be
  /// resolved (> 0) — Run() returns InvalidArgument otherwise (the
  /// constructor never aborts on bad sizing). `top_k` converts admitted
  /// tokens to assignments. `estimator` is required iff
  /// options.shed_unreachable.
  ServeExecutor(MoESystem* system, TraceSource* source,
                RequestSource* requests, const ServingOptions& options,
                int64_t max_batch_tokens, int top_k,
                LatencyEstimator estimator = nullptr);

  /// Executes exactly `num_batches` microbatches (one TraceSource step
  /// each) and aggregates the report.
  Result<ServingReport> Run(int num_batches);

  /// FNV-1a hash of the consumed source steps (chained from
  /// kTraceHashSeed) — the same stream identity the training loop reports.
  uint64_t trace_hash() const { return trace_hash_; }

  const std::vector<ServeBatchRecord>& batch_log() const { return log_; }

  /// Installs the per-run observability handle (nullable; also forwarded
  /// to the system under test). Batch formation and execution emit spans
  /// on the serving lane, backlog is sampled as a counter track, and
  /// per-request latencies feed a registry histogram.
  void set_observability(obs::Observability* obs) {
    obs_ = obs;
    system_->SetObservability(obs);
  }

 private:
  /// Best-case completion seconds for `remaining` tokens launched now:
  /// full-cap chunks plus the tail, each at the estimator's latency.
  double BestCaseServiceSeconds(int64_t remaining) const;

  MoESystem* system_;
  TraceSource* source_;
  RequestSource* requests_;
  ServingOptions options_;
  int64_t max_batch_tokens_;
  int top_k_;
  LatencyEstimator estimator_;
  /// estimator_(max_batch_tokens_), cached by Run() — the full-chunk term
  /// of every shed check, constant for the whole run.
  double cap_chunk_seconds_ = 0.0;
  uint64_t trace_hash_ = kTraceHashSeed;
  std::vector<ServeBatchRecord> log_;
  obs::Observability* obs_ = nullptr;
};

}  // namespace flexmoe

#endif  // FLEXMOE_CORE_SERVE_EXECUTOR_H_
