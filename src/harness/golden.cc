#include "harness/golden.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "util/file_io.h"
#include "util/string_util.h"

namespace flexmoe {

ExperimentOptions WorkloadGoldenCell(const std::string& scenario,
                                     const std::string& system) {
  ExperimentOptions o;
  o.system = system;
  o.model = GptMoES();
  o.model.num_moe_layers = 2;
  o.model.tokens_per_gpu = 2048;
  // 16 devices: large enough that FasterMoE's global shadow sync starts
  // paying its scaling tax (the paper's Figure 5 regime), small enough for
  // a sub-second cell.
  o.num_gpus = 16;
  o.measure_steps = 60;
  o.warmup_steps = 15;
  o.seed = 5;
  o.workload.scenario.name = scenario;
  // Scale the scenario clocks into the 60-step window: the shift lands
  // mid-run, three diurnal periods complete, and six tenant slices rotate.
  o.workload.scenario.shift_step = 30;
  o.workload.scenario.diurnal_period = 20.0;
  o.workload.scenario.tenant_block_steps = 10;
  // Sustained flash crowds (multi-step half-life) rather than the
  // catalog's default 3-step spikes: transient load a placement system
  // can meaningfully chase within the short cell.
  o.workload.scenario.burst_rate = 0.08;
  o.workload.scenario.burst_boost = 3.0;
  o.workload.scenario.burst_decay = 0.90;
  return o;
}

ExperimentOptions ServingGoldenCell(const std::string& scenario,
                                    const std::string& system) {
  ExperimentOptions o = WorkloadGoldenCell(scenario, system);
  o.serving.enabled = true;
  // One window == one scenario step; 60 batches span the same scenario
  // clocks the training golden cell exercises (shift mid-run, three
  // diurnal waves, six tenant slices).
  o.serving.batch_window_seconds = 0.01;
  o.serving.tokens_per_request = 256;
  // Rate and cap sized against the cluster's measured forward throughput
  // (a full 32768-token batch: ~4.9 ms on FlexMoE, ~5.5 ms on FasterMoE,
  // ~9 ms on the recirculating capacity layouts): base token load sits
  // just under FlexMoE's drain rate, so the bursty spikes and the hot
  // multi-tenant slices push every static layout past saturation while
  // FlexMoE's re-placed experts keep draining. The SLO spans roughly a
  // dozen healthy batch executions.
  o.serving.arrival_rate_rps = 30000.0;
  o.serving.slo_seconds = 0.06;
  o.serving.max_batch_tokens =
      o.model.tokens_per_gpu * static_cast<int64_t>(o.num_gpus);
  return o;
}

ExperimentOptions ServingSizeMixCell(const std::string& scenario,
                                     const std::string& system,
                                     const std::string& admission_policy) {
  ExperimentOptions o = ServingGoldenCell(scenario, system);
  // Heavy-tailed chat/batch sizes around a 4x larger base request, at a
  // quarter of the rate: the OFFERED token load matches the fixed-size
  // cell (the mix mean sits near tokens_per_request), while the Pareto
  // tail reaches 64 x 1024 = 65536 tokens — twice the 32768 batch cap —
  // so oversized requests exercise the chunked admission path in every
  // run. Shedding is on: a backlogged system rejects hopeless requests
  // instead of serving them dead, and the differential is measured on
  // goodput over arrived traffic.
  o.serving.tokens_per_request = 1024;
  o.serving.arrival_rate_rps = 7500.0;
  o.serving.size_mix = "heavy";
  o.serving.shed_unreachable = true;
  o.serving.admission_policy = admission_policy;
  return o;
}

MetricsDigest DigestFromReport(const std::string& label,
                               const ExperimentReport& report) {
  MetricsDigest d;
  d.label = label;
  d.system = report.system;
  d.workload = report.workload;
  d.num_gpus = report.num_gpus;
  d.steps = static_cast<int>(report.stats.num_steps());
  d.trace_hash = report.trace_hash;
  d.mean_step_seconds = report.mean_step_seconds;
  d.throughput_tokens_per_sec = report.throughput_tokens_per_sec;
  d.mean_balance_ratio = report.mean_balance_ratio;
  d.mean_token_efficiency = report.mean_token_efficiency;
  d.mean_expert_efficiency = report.mean_expert_efficiency;
  d.mean_gpu_utilization = report.mean_gpu_utilization;
  d.hours_to_target = report.hours_to_target;
  d.ops_applied = report.stats.TotalOpsApplied();
  d.tokens_dropped = report.stats.TotalTokensDropped();
  if (report.serving) {
    d.serving = true;
    d.requests_completed = report.serve.requests_completed;
    d.batches = report.serve.batches;
    d.failed_batches = report.serve.failed_batches;
    d.tokens_recirculated = report.serve.tokens_recirculated;
    d.slo_attainment = report.serve.slo_attainment;
    d.p50_latency_seconds = report.serve.p50_latency_seconds;
    d.p99_latency_seconds = report.serve.p99_latency_seconds;
    d.mean_latency_seconds = report.serve.mean_latency_seconds;
    d.requests_arrived = report.serve.requests_arrived;
    d.requests_shed = report.serve.requests_shed;
    d.requests_queued_past_deadline =
        report.serve.requests_queued_past_deadline;
    d.goodput_tokens_per_sec = report.serve.goodput_tokens_per_sec;
  }
  return d;
}

std::string FormatDigest(const MetricsDigest& d) {
  // %.17g round-trips doubles exactly, so a committed golden pins the
  // full-precision value a deterministic rerun reproduces.
  std::string line = StrFormat(
      "label=%s system=%s workload=%s gpus=%d steps=%d trace_hash=%016llx "
      "step_s=%.17g throughput=%.17g balance=%.17g token_eff=%.17g "
      "expert_eff=%.17g util=%.17g hours=%.17g ops=%lld dropped=%lld",
      d.label.c_str(), d.system.c_str(), d.workload.c_str(), d.num_gpus,
      d.steps, static_cast<unsigned long long>(d.trace_hash),
      d.mean_step_seconds, d.throughput_tokens_per_sec, d.mean_balance_ratio,
      d.mean_token_efficiency, d.mean_expert_efficiency,
      d.mean_gpu_utilization, d.hours_to_target,
      static_cast<long long>(d.ops_applied),
      static_cast<long long>(d.tokens_dropped));
  if (d.serving) {
    line += StrFormat(
        " mode=serve req=%lld batches=%lld retries=%lld recirc=%lld "
        "attain=%.17g p50=%.17g p99=%.17g lat=%.17g arrived=%lld shed=%lld "
        "qpd=%lld goodput=%.17g",
        static_cast<long long>(d.requests_completed),
        static_cast<long long>(d.batches),
        static_cast<long long>(d.failed_batches),
        static_cast<long long>(d.tokens_recirculated), d.slo_attainment,
        d.p50_latency_seconds, d.p99_latency_seconds,
        d.mean_latency_seconds, static_cast<long long>(d.requests_arrived),
        static_cast<long long>(d.requests_shed),
        static_cast<long long>(d.requests_queued_past_deadline),
        d.goodput_tokens_per_sec);
  }
  return line;
}

namespace {

// The numeric digest fields by key, one table per value type.
template <typename T>
using DigestField = std::pair<const char*, T MetricsDigest::*>;

constexpr DigestField<int> kIntFields[] = {
    {"gpus", &MetricsDigest::num_gpus}, {"steps", &MetricsDigest::steps}};

constexpr DigestField<int64_t> kCountFields[] = {
    {"ops", &MetricsDigest::ops_applied},
    {"dropped", &MetricsDigest::tokens_dropped},
    {"req", &MetricsDigest::requests_completed},
    {"batches", &MetricsDigest::batches},
    {"retries", &MetricsDigest::failed_batches},
    {"recirc", &MetricsDigest::tokens_recirculated},
    {"arrived", &MetricsDigest::requests_arrived},
    {"shed", &MetricsDigest::requests_shed},
    {"qpd", &MetricsDigest::requests_queued_past_deadline}};

constexpr DigestField<double> kRealFields[] = {
    {"step_s", &MetricsDigest::mean_step_seconds},
    {"throughput", &MetricsDigest::throughput_tokens_per_sec},
    {"balance", &MetricsDigest::mean_balance_ratio},
    {"token_eff", &MetricsDigest::mean_token_efficiency},
    {"expert_eff", &MetricsDigest::mean_expert_efficiency},
    {"util", &MetricsDigest::mean_gpu_utilization},
    {"hours", &MetricsDigest::hours_to_target},
    {"attain", &MetricsDigest::slo_attainment},
    {"p50", &MetricsDigest::p50_latency_seconds},
    {"p99", &MetricsDigest::p99_latency_seconds},
    {"lat", &MetricsDigest::mean_latency_seconds},
    {"goodput", &MetricsDigest::goodput_tokens_per_sec}};

}  // namespace

Result<MetricsDigest> ParseDigest(const std::string& line) {
  MetricsDigest d;
  bool saw_label = false, saw_hash = false;
  for (const std::string& token : Split(line, ' ')) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument(
          StrFormat("bad digest token '%s'", token.c_str()));
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    // Every value parses whole: a malformed digest fails to load instead
    // of reading as a default or as a prefix of itself.
    bool numeric = false, parsed = false;
    int64_t integer = 0;
    for (const auto& [name, member] : kIntFields) {
      if (key != name) continue;
      numeric = true;
      parsed = ParseInt64(value, &integer) &&
               integer >= std::numeric_limits<int>::min() &&
               integer <= std::numeric_limits<int>::max();
      if (parsed) d.*member = static_cast<int>(integer);
    }
    for (const auto& [name, member] : kCountFields) {
      if (key != name) continue;
      numeric = true;
      parsed = ParseInt64(value, &(d.*member));
    }
    for (const auto& [name, member] : kRealFields) {
      if (key != name) continue;
      numeric = true;
      parsed = ParseDouble(value, &(d.*member));
    }
    // The hash is exactly the 16 hex digits FormatDigest writes.
    if (key == "trace_hash") {
      numeric = true;
      parsed = value.size() == 16 &&
               value.find_first_not_of("0123456789abcdefABCDEF") ==
                   std::string::npos;
      if (parsed) d.trace_hash = std::strtoull(value.c_str(), nullptr, 16);
      saw_hash = true;
    }
    if (numeric) {
      if (parsed) continue;
      return Status::InvalidArgument(
          StrFormat("bad value in digest token '%s'", token.c_str()));
    }
    if (key == "label") {
      d.label = value;
      saw_label = true;
    } else if (key == "system") {
      d.system = value;
    } else if (key == "workload") {
      d.workload = value;
    } else if (key == "mode") {
      if (value != "serve") {
        return Status::InvalidArgument(
            StrFormat("unknown digest mode '%s'", value.c_str()));
      }
      d.serving = true;
    } else {
      return Status::InvalidArgument(
          StrFormat("unknown digest key '%s'", key.c_str()));
    }
  }
  if (!saw_label || !saw_hash) {
    return Status::InvalidArgument("digest line missing label/trace_hash");
  }
  return d;
}

Status SaveDigests(const std::vector<MetricsDigest>& digests,
                   const std::string& path) {
  std::string text = "# flexmoe metrics digest v1\n";
  for (const MetricsDigest& d : digests) text += FormatDigest(d) + "\n";
  return WriteFile(path, text);
}

Result<std::vector<MetricsDigest>> LoadDigests(const std::string& path) {
  FLEXMOE_ASSIGN_OR_RETURN(const std::string text, ReadFile(path));
  std::vector<MetricsDigest> digests;
  for (std::string& line : Split(text, '\n')) {
    while (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    FLEXMOE_ASSIGN_OR_RETURN(MetricsDigest d, ParseDigest(line));
    digests.push_back(std::move(d));
  }
  return digests;
}

namespace {

Status CheckClose(const char* field, double golden, double fresh,
                  double rel_tol) {
  // NaN never compares close to anything through the arithmetic below
  // (every comparison involving NaN is false, which would silently PASS),
  // so it is handled explicitly: NaN matches only NaN.
  if (std::isnan(golden) || std::isnan(fresh)) {
    if (std::isnan(golden) && std::isnan(fresh)) return Status::OK();
    return Status::Internal(
        StrFormat("digest field %s drifted: golden=%.17g fresh=%.17g",
                  field, golden, fresh));
  }
  const double denom = std::max(std::abs(golden), std::abs(fresh));
  if (denom == 0.0) return Status::OK();
  if (std::abs(golden - fresh) / denom > rel_tol) {
    return Status::Internal(
        StrFormat("digest field %s drifted: golden=%.17g fresh=%.17g",
                  field, golden, fresh));
  }
  return Status::OK();
}

}  // namespace

Status CompareDigests(const MetricsDigest& golden, const MetricsDigest& fresh,
                      double rel_tol) {
  if (golden.label != fresh.label || golden.system != fresh.system ||
      golden.workload != fresh.workload) {
    return Status::Internal(StrFormat(
        "digest identity mismatch: golden %s/%s/%s vs fresh %s/%s/%s",
        golden.label.c_str(), golden.system.c_str(), golden.workload.c_str(),
        fresh.label.c_str(), fresh.system.c_str(), fresh.workload.c_str()));
  }
  if (golden.num_gpus != fresh.num_gpus || golden.steps != fresh.steps) {
    return Status::Internal(
        StrFormat("digest shape mismatch for %s", golden.label.c_str()));
  }
  if (golden.trace_hash != fresh.trace_hash) {
    return Status::Internal(StrFormat(
        "trace hash mismatch for %s: golden=%016llx fresh=%016llx — the "
        "workload stream itself changed", golden.label.c_str(),
        static_cast<unsigned long long>(golden.trace_hash),
        static_cast<unsigned long long>(fresh.trace_hash)));
  }
  if (golden.ops_applied != fresh.ops_applied ||
      golden.tokens_dropped != fresh.tokens_dropped) {
    return Status::Internal(StrFormat(
        "digest op/drop counts drifted for %s", golden.label.c_str()));
  }
  FLEXMOE_RETURN_IF_ERROR(CheckClose("step_s", golden.mean_step_seconds,
                                     fresh.mean_step_seconds, rel_tol));
  FLEXMOE_RETURN_IF_ERROR(CheckClose("throughput",
                                     golden.throughput_tokens_per_sec,
                                     fresh.throughput_tokens_per_sec,
                                     rel_tol));
  FLEXMOE_RETURN_IF_ERROR(CheckClose("balance", golden.mean_balance_ratio,
                                     fresh.mean_balance_ratio, rel_tol));
  FLEXMOE_RETURN_IF_ERROR(CheckClose("token_eff",
                                     golden.mean_token_efficiency,
                                     fresh.mean_token_efficiency, rel_tol));
  FLEXMOE_RETURN_IF_ERROR(CheckClose("expert_eff",
                                     golden.mean_expert_efficiency,
                                     fresh.mean_expert_efficiency, rel_tol));
  FLEXMOE_RETURN_IF_ERROR(CheckClose("util", golden.mean_gpu_utilization,
                                     fresh.mean_gpu_utilization, rel_tol));
  FLEXMOE_RETURN_IF_ERROR(CheckClose("hours", golden.hours_to_target,
                                     fresh.hours_to_target, rel_tol));

  if (golden.serving != fresh.serving) {
    return Status::Internal(StrFormat(
        "digest mode mismatch for %s: golden is %s, fresh is %s",
        golden.label.c_str(), golden.serving ? "serving" : "training",
        fresh.serving ? "serving" : "training"));
  }
  if (golden.serving) {
    if (golden.requests_completed != fresh.requests_completed ||
        golden.batches != fresh.batches ||
        golden.failed_batches != fresh.failed_batches ||
        golden.tokens_recirculated != fresh.tokens_recirculated ||
        golden.requests_arrived != fresh.requests_arrived ||
        golden.requests_shed != fresh.requests_shed ||
        golden.requests_queued_past_deadline !=
            fresh.requests_queued_past_deadline) {
      return Status::Internal(StrFormat(
          "serving digest counts drifted for %s", golden.label.c_str()));
    }
    FLEXMOE_RETURN_IF_ERROR(CheckClose("goodput",
                                       golden.goodput_tokens_per_sec,
                                       fresh.goodput_tokens_per_sec,
                                       rel_tol));
    FLEXMOE_RETURN_IF_ERROR(CheckClose("attain", golden.slo_attainment,
                                       fresh.slo_attainment, rel_tol));
    FLEXMOE_RETURN_IF_ERROR(CheckClose("p50", golden.p50_latency_seconds,
                                       fresh.p50_latency_seconds, rel_tol));
    FLEXMOE_RETURN_IF_ERROR(CheckClose("p99", golden.p99_latency_seconds,
                                       fresh.p99_latency_seconds, rel_tol));
    FLEXMOE_RETURN_IF_ERROR(CheckClose("lat", golden.mean_latency_seconds,
                                       fresh.mean_latency_seconds, rel_tol));
  }
  return Status::OK();
}

}  // namespace flexmoe
