#include "core/serve_executor.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <queue>

#include "util/string_util.h"

namespace flexmoe {

Status ServingOptions::Validate() const {
  if (!enabled) return Status::OK();
  if (!std::isfinite(arrival_rate_rps) || arrival_rate_rps <= 0.0) {
    return Status::InvalidArgument(
        "serving.arrival_rate_rps must be finite and > 0");
  }
  if (tokens_per_request <= 0) {
    return Status::InvalidArgument("serving.tokens_per_request must be > 0");
  }
  if (!std::isfinite(slo_seconds) || slo_seconds <= 0.0) {
    return Status::InvalidArgument(
        "serving.slo_seconds must be finite and > 0");
  }
  if (!std::isfinite(batch_window_seconds) || batch_window_seconds <= 0.0) {
    return Status::InvalidArgument(
        "serving.batch_window_seconds must be finite and > 0");
  }
  if (max_batch_tokens < 0) {
    return Status::InvalidArgument("serving.max_batch_tokens must be >= 0");
  }
  if (admission_policy != "edf" && admission_policy != "sjf") {
    return Status::InvalidArgument(StrFormat(
        "serving.admission_policy '%s' unknown (want edf|sjf)",
        admission_policy.c_str()));
  }
  return size_mix.Validate();
}

Assignment ScaleAssignmentTo(const Assignment& src, int64_t target_total) {
  FLEXMOE_CHECK(target_total >= 0);
  const int64_t src_total = src.Total();
  Assignment out(src.num_experts(), src.num_gpus());
  if (src_total <= 0 || target_total == 0) return out;

  // Floor of the exact proportional share per cell; the remainders decide
  // who gets the leftover units (largest remainder, ties by cell index
  // ascending — a pure function of the inputs).
  struct Remainder {
    int64_t rem;  // numerator of the fractional part, in units of 1/src_total
    int expert;
    int gpu;
  };
  std::vector<Remainder> remainders;
  remainders.reserve(static_cast<size_t>(src.num_experts()) *
                     static_cast<size_t>(src.num_gpus()));
  int64_t assigned = 0;
  for (int e = 0; e < src.num_experts(); ++e) {
    const int64_t* row = src.row(e);
    for (int g = 0; g < src.num_gpus(); ++g) {
      const int64_t count = row[g];
      if (count <= 0) continue;
      // The per-cell product can exceed int64 for large traces rescaled to
      // large batches (count and target_total can each approach 2^33), so
      // it is taken in 128-bit arithmetic; the quotient is <= target_total
      // and the remainder < src_total, both of which fit int64.
      const __int128 numer =
          static_cast<__int128>(count) * static_cast<__int128>(target_total);
      const int64_t floor_share =
          static_cast<int64_t>(numer / static_cast<__int128>(src_total));
      const int64_t rem =
          static_cast<int64_t>(numer % static_cast<__int128>(src_total));
      if (floor_share > 0) out.set(e, g, floor_share);
      assigned += floor_share;
      if (rem > 0) remainders.push_back({rem, e, g});
    }
  }
  int64_t leftover = target_total - assigned;
  FLEXMOE_CHECK(leftover >= 0 &&
                leftover <= static_cast<int64_t>(remainders.size()));
  // The order (rem desc, expert asc, gpu asc) is strict and total — no two
  // cells share (expert, gpu) — so selecting the first `leftover` cells
  // picks exactly the cells a full sort would put there, and the order in
  // which they receive their unit does not matter.
  const auto first_leftover =
      remainders.begin() + static_cast<std::ptrdiff_t>(leftover);
  if (leftover > 0 && first_leftover != remainders.end()) {
    std::nth_element(remainders.begin(), first_leftover, remainders.end(),
                     [](const Remainder& a, const Remainder& b) {
                       if (a.rem != b.rem) return a.rem > b.rem;
                       if (a.expert != b.expert) return a.expert < b.expert;
                       return a.gpu < b.gpu;
                     });
  }
  for (auto it = remainders.begin(); it != first_leftover; ++it) {
    out.add(it->expert, it->gpu, 1);
  }
  return out;
}

namespace {

double NearestRankQuantile(const std::vector<double>& sorted_ascending,
                           double q) {
  if (sorted_ascending.empty()) return 0.0;
  const size_t n = sorted_ascending.size();
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::max<size_t>(1, std::min(rank, n));
  return sorted_ascending[rank - 1];
}

/// A request waiting in the admission queue; `remaining` shrinks as
/// cap-sized chunks of an oversized request execute.
struct QueuedRequest {
  ServeRequest req;
  int64_t remaining = 0;
};

/// One admitted entry of the batch being formed.
struct AdmittedChunk {
  ServeRequest req;
  int64_t chunk = 0;             ///< tokens executing in this batch
  int64_t remaining_before = 0;  ///< remaining at admission (>= chunk)
};

/// Rounds of the form-a-batch loop in which every queued request was shed
/// before giving up: a pure safety valve against a configuration whose
/// every request is hopeless at birth (SLO below the best-case latency of
/// the smallest request), which would otherwise never form a batch.
constexpr int64_t kMaxShedOnlyRounds = 1 << 20;

}  // namespace

ServeExecutor::ServeExecutor(MoESystem* system, TraceSource* source,
                             RequestSource* requests,
                             const ServingOptions& options,
                             int64_t max_batch_tokens, int top_k,
                             LatencyEstimator estimator)
    : system_(system),
      source_(source),
      requests_(requests),
      options_(options),
      max_batch_tokens_(max_batch_tokens),
      top_k_(top_k),
      estimator_(std::move(estimator)) {
  FLEXMOE_CHECK(system != nullptr && source != nullptr && requests != nullptr);
}

double ServeExecutor::BestCaseServiceSeconds(int64_t remaining) const {
  if (remaining <= 0) return 0.0;
  // An oversized request drains as full-cap chunks plus a tail chunk, one
  // batch each; a fitting request is one estimator call. The estimator is
  // the cost model's contention-free forward time, so this is the floor of
  // any actual service — shedding on it rejects only hopeless requests.
  // The full-chunk estimate is a run constant (cached: the shed check runs
  // once per popped request, and an outage backlog runs to millions).
  const int64_t full = remaining / max_batch_tokens_;
  const int64_t tail = remaining % max_batch_tokens_;
  double seconds = static_cast<double>(full) * cap_chunk_seconds_;
  if (tail > 0) seconds += estimator_(tail);
  return seconds;
}

Result<ServingReport> ServeExecutor::Run(int num_batches) {
  if (num_batches <= 0) {
    return Status::InvalidArgument("num_batches must be > 0");
  }
  // Resolved-sizing validation (the harness derives 0 into a real cap;
  // a direct caller that forgot must get a status, not a crash).
  if (max_batch_tokens_ <= 0) {
    return Status::InvalidArgument(
        "serving max_batch_tokens must be resolved to > 0 (0 is only a "
        "derive-me placeholder at the experiment level)");
  }
  if (top_k_ <= 0) {
    return Status::InvalidArgument("serving top_k must be > 0");
  }
  {
    // Validate with the master switch forced on: an executor constructed
    // at all IS serving, so a direct caller's bad policy/mix must not
    // slip past Validate()'s disabled-mode early-out.
    ServingOptions check = options_;
    check.enabled = true;
    FLEXMOE_RETURN_IF_ERROR(check.Validate());
  }
  if (options_.shed_unreachable && !estimator_) {
    return Status::InvalidArgument(
        "shed_unreachable requires a forward-latency estimator");
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const bool sjf = options_.admission_policy == "sjf";
  const bool shedding = options_.shed_unreachable;

  ServingReport report;
  // Priority queue in admission order: after an outage the backlog can run
  // to millions of requests, so admission must not re-sort the whole queue
  // per batch. EDF orders by (deadline, arrival, id); SJF by remaining
  // size first with the same tie-break, so draining order stays a pure
  // function of the stream.
  const auto admit_after = [sjf](const QueuedRequest& a,
                                 const QueuedRequest& b) {
    if (sjf && a.remaining != b.remaining) return a.remaining > b.remaining;
    if (a.req.deadline_seconds != b.req.deadline_seconds) {
      return a.req.deadline_seconds > b.req.deadline_seconds;
    }
    if (a.req.arrival_seconds != b.req.arrival_seconds) {
      return a.req.arrival_seconds > b.req.arrival_seconds;
    }
    return a.req.id > b.req.id;
  };
  std::priority_queue<QueuedRequest, std::vector<QueuedRequest>,
                      decltype(admit_after)>
      queue(admit_after);
  std::vector<double> latencies;
  double engine_idle = 0.0;
  double first_launch = -1.0;
  double last_end = 0.0;
  double batch_seconds_sum = 0.0;
  int64_t batch_tokens_sum = 0;

  auto pull_arrivals_upto = [&](double t) {
    while (requests_->PeekArrival() <= t) {
      ServeRequest req = requests_->Next();
      report.requests_arrived += 1;
      report.tokens_arrived += req.tokens;
      queue.push({req, req.tokens});
    }
  };

  for (int b = 0; b < num_batches; ++b) {
    // Refreshed per batch, not cached across the run: the estimator is a
    // function of cluster health (alive count, placement), and a floor
    // memoized before a failover would understate post-failover service
    // times — shedding would then admit provably-unreachable requests.
    cap_chunk_seconds_ = shedding ? estimator_(max_batch_tokens_) : 0.0;

    ServeBatchRecord record;
    record.batch = b;
    record.engine_idle = engine_idle;

    pull_arrivals_upto(engine_idle);
    record.backlog_at_idle = static_cast<int>(queue.size());

    // Form a non-empty batch. A round either admits something, or shed
    // every queued request and loops to wait for new arrivals.
    std::vector<AdmittedChunk> admitted;
    int64_t admitted_tokens = 0;
    record.max_admitted_deadline = -kInf;
    record.max_admitted_remaining = 0;
    double launch = engine_idle;
    int64_t shed_only_rounds = 0;
    while (true) {
      if (!queue.empty()) {
        // Work-conserving: the backlog already waited out the previous
        // batch's execution — that was its batching window.
        launch = engine_idle;
      } else {
        // Idle engine: the window opens at the first arrival and the
        // batch collects everything landing within it.
        const double t0 = std::max(engine_idle, requests_->PeekArrival());
        launch = t0 + options_.batch_window_seconds;
        pull_arrivals_upto(launch);
      }

      // Admission under the token cap, in policy order.
      while (!queue.empty()) {
        const QueuedRequest& top = queue.top();
        if (shedding && launch + BestCaseServiceSeconds(top.remaining) >
                            top.req.deadline_seconds) {
          // The deadline precedes even a best-case completion: reject the
          // request (counted, never executed) instead of serving it dead.
          report.requests_shed += 1;
          report.tokens_shed += top.remaining;
          record.shed += 1;
          queue.pop();
          continue;
        }
        const int64_t space = max_batch_tokens_ - admitted_tokens;
        if (top.remaining <= space) {
          record.max_admitted_deadline =
              std::max(record.max_admitted_deadline, top.req.deadline_seconds);
          record.max_admitted_remaining =
              std::max(record.max_admitted_remaining, top.remaining);
          admitted.push_back({top.req, top.remaining, top.remaining});
          admitted_tokens += top.remaining;
          queue.pop();
          continue;
        }
        if (admitted.empty()) {
          // Oversized head fronting an empty batch: admit a cap-sized solo
          // chunk so the request drains across consecutive batches instead
          // of deadlocking the engine (the remainder re-enters the queue
          // after execution, deadline and arrival intact).
          const QueuedRequest head = queue.top();
          queue.pop();
          record.max_admitted_deadline = std::max(record.max_admitted_deadline,
                                                  head.req.deadline_seconds);
          record.max_admitted_remaining =
              std::max(record.max_admitted_remaining, head.remaining);
          record.chunked += 1;
          report.chunked_admissions += 1;
          admitted.push_back({head.req, space, head.remaining});
          admitted_tokens += space;  // batch is now exactly full
        }
        break;
      }
      if (!admitted.empty()) break;
      if (++shed_only_rounds > kMaxShedOnlyRounds) {
        return Status::InvalidArgument(StrFormat(
            "shedding rejected every request for %lld consecutive rounds at "
            "serving batch %d — the SLO is below the best-case latency of "
            "the whole size mix",
            static_cast<long long>(shed_only_rounds), b));
      }
    }

    record.launch = launch;
    record.tokens = admitted_tokens;
    record.num_requests = static_cast<int>(admitted.size());
    record.left_waiting = static_cast<int>(queue.size());
    // The heap top is the first remaining request in admission order —
    // under EDF the earliest waiting deadline, under SJF the smallest
    // waiting remainder: exactly the active policy's invariant witness.
    record.min_waiting_deadline =
        queue.empty() ? kInf : queue.top().req.deadline_seconds;
    record.min_waiting_remaining =
        queue.empty() ? std::numeric_limits<int64_t>::max()
                      : queue.top().remaining;

    // Shape the microbatch's routing from the next source step, rescaled
    // to the admitted volume (tokens -> top_k assignments each).
    if (source_->StepsRemaining() == 0) {
      return Status::InvalidArgument(
          StrFormat("trace source exhausted at serving batch %d", b));
    }
    const std::vector<Assignment> step = source_->NextStep();
    trace_hash_ = HashStep(step, trace_hash_);
    std::vector<Assignment> scaled;
    scaled.reserve(step.size());
    for (const Assignment& layer : step) {
      scaled.push_back(ScaleAssignmentTo(layer, admitted_tokens * top_k_));
    }

    const StepMetrics metrics = system_->ServeMicrobatch(scaled);
    const double end = launch + metrics.step_seconds;
    if (obs::Tracer* tr = obs::TracerOf(obs_); tr != nullptr) {
      // Serving-lane timeline: the admission window (idle engine waiting
      // for the batch to form) followed by the batch's execution, plus a
      // backlog counter track sampled at each launch.
      if (launch > engine_idle) {
        tr->Span("batch_window", "serving", obs::kServingLane, engine_idle,
                 launch, "batch", static_cast<double>(b));
      }
      tr->Span("serve_batch", "serving", obs::kServingLane, launch, end,
               "tokens", static_cast<double>(admitted_tokens), "requests",
               static_cast<double>(admitted.size()));
      tr->Counter("serve_backlog", obs::kServingLane, launch, "requests",
                  static_cast<double>(record.left_waiting));
      if (record.shed > 0) {
        tr->Instant("requests_shed", "serving", obs::kServingLane, launch,
                    "count", static_cast<double>(record.shed));
      }
      if (metrics.tokens_dropped > 0) {
        tr->Instant("batch_failed", "serving", obs::kServingLane, end,
                    "batch", static_cast<double>(b));
      }
    }
    engine_idle = end;
    record.end = end;
    if (first_launch < 0.0) first_launch = launch;
    last_end = end;
    report.batches += 1;
    report.tokens_recirculated += metrics.tokens_recirculated;
    batch_seconds_sum += metrics.step_seconds;
    batch_tokens_sum += admitted_tokens;

    if (metrics.tokens_dropped > 0) {
      // A fault hit this batch: its responses are lost, but the admitted
      // requests are not — every chunk re-enters the queue (original
      // arrivals and deadlines intact) and re-executes later.
      record.failed = true;
      report.failed_batches += 1;
      for (const AdmittedChunk& entry : admitted) {
        queue.push({entry.req, entry.remaining_before});
      }
    } else {
      for (const AdmittedChunk& entry : admitted) {
        report.tokens_completed += entry.chunk;
        const int64_t remaining_after = entry.remaining_before - entry.chunk;
        if (remaining_after > 0) {
          // Partial chunk of an oversized request: the remainder waits for
          // the next batch; the request completes when its last chunk does.
          queue.push({entry.req, remaining_after});
          continue;
        }
        const double latency = end - entry.req.arrival_seconds;
        latencies.push_back(latency);
        if (obs::MetricsRegistry* m = obs::MetricsOf(obs_); m != nullptr) {
          m->Observe("serve.latency_seconds", latency);
        }
        report.requests_completed += 1;
        if (end > entry.req.deadline_seconds) {
          report.requests_completed_late += 1;
        } else {
          report.tokens_completed_within_slo += entry.req.tokens;
        }
      }
    }
    log_.push_back(record);
  }

  // Horizon-end accounting over the surviving backlog: a queued request
  // whose deadline already passed can never meet it — it counts as a
  // violation instead of silently inflating attainment (the survivor-bias
  // fix), while still-feasible queued requests are censored, not violated.
  const double horizon = last_end;
  while (!queue.empty()) {
    const QueuedRequest& left = queue.top();
    report.requests_queued_at_end += 1;
    report.tokens_queued_at_end += left.remaining;
    if (left.req.deadline_seconds <= horizon) {
      report.requests_queued_past_deadline += 1;
    }
    queue.pop();
  }

  if (!latencies.empty()) {
    double sum = 0.0;
    for (const double v : latencies) sum += v;
    report.mean_latency_seconds =
        sum / static_cast<double>(latencies.size());
    std::sort(latencies.begin(), latencies.end());
    report.p50_latency_seconds = NearestRankQuantile(latencies, 0.50);
    report.p99_latency_seconds = NearestRankQuantile(latencies, 0.99);
    report.max_latency_seconds = latencies.back();
  }
  report.slo_violations = report.requests_completed_late +
                          report.requests_shed +
                          report.requests_queued_past_deadline;
  const int64_t decided = report.requests_completed + report.requests_shed +
                          report.requests_queued_past_deadline;
  report.slo_attainment =
      decided > 0
          ? static_cast<double>(report.requests_completed -
                                report.requests_completed_late) /
                static_cast<double>(decided)
          : 1.0;
  report.mean_batch_seconds =
      batch_seconds_sum / static_cast<double>(report.batches);
  report.mean_batch_tokens = static_cast<double>(batch_tokens_sum) /
                             static_cast<double>(report.batches);
  report.span_seconds = std::max(0.0, last_end - first_launch);
  report.served_tokens_per_sec =
      report.span_seconds > 0.0
          ? static_cast<double>(report.tokens_completed) / report.span_seconds
          : 0.0;
  report.goodput_tokens_per_sec =
      report.span_seconds > 0.0
          ? static_cast<double>(report.tokens_completed_within_slo) /
                report.span_seconds
          : 0.0;
  if (obs::MetricsRegistry* m = obs::MetricsOf(obs_); m != nullptr) {
    m->Add("serve.batches", report.batches);
    m->Add("serve.requests_arrived", report.requests_arrived);
    m->Add("serve.requests_completed", report.requests_completed);
    if (report.requests_shed > 0) {
      m->Add("serve.requests_shed", report.requests_shed);
    }
    if (report.failed_batches > 0) {
      m->Add("serve.failed_batches", report.failed_batches);
    }
    if (report.chunked_admissions > 0) {
      m->Add("serve.chunked_admissions", report.chunked_admissions);
    }
    m->Add("serve.tokens_completed", report.tokens_completed);
    m->Set("serve.slo_attainment", report.slo_attainment);
    m->Set("serve.goodput_tokens_per_sec", report.goodput_tokens_per_sec);
  }
  return report;
}

}  // namespace flexmoe
