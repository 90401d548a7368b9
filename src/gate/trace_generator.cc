#include "gate/trace_generator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
#include <tuple>
#include <utility>

#include "util/byte_io.h"
#include "util/string_util.h"

namespace flexmoe {

Status TraceGeneratorOptions::Validate() const {
  if (num_experts <= 0) return Status::InvalidArgument("num_experts <= 0");
  if (num_moe_layers <= 0) {
    return Status::InvalidArgument("num_moe_layers <= 0");
  }
  if (num_gpus <= 0) return Status::InvalidArgument("num_gpus <= 0");
  if (tokens_per_gpu <= 0) {
    return Status::InvalidArgument("tokens_per_gpu <= 0");
  }
  if (top_k <= 0 || top_k > num_experts) {
    return Status::InvalidArgument("top_k out of range");
  }
  if (skew_top_count > num_experts) {
    return Status::InvalidArgument("skew_top_count > num_experts");
  }
  // NaN fails no range comparison below, so finiteness is checked first.
  const std::pair<const char*, double> floats[] = {
      {"skew_top_share", skew_top_share},
      {"logit_sigma", logit_sigma},
      {"ou_theta", ou_theta},
      {"gpu_jitter_sigma", gpu_jitter_sigma},
      {"gpu_jitter_theta", gpu_jitter_theta},
      {"balance_coef", balance_coef},
      {"balance_strength", balance_strength},
      {"balance_tau_steps", balance_tau_steps},
  };
  for (const auto& [field, value] : floats) {
    if (!std::isfinite(value)) {
      return Status::InvalidArgument(StrFormat("%s is not finite", field));
    }
  }
  if (skew_top_share <= 0.0 || skew_top_share > 1.0) {
    return Status::InvalidArgument("skew_top_share must be in (0, 1]");
  }
  if (logit_sigma < 0.0) return Status::InvalidArgument("logit_sigma < 0");
  if (ou_theta <= 0.0 || ou_theta > 1.0) {
    return Status::InvalidArgument("ou_theta must be in (0, 1]");
  }
  if (gpu_jitter_sigma < 0.0) {
    return Status::InvalidArgument("gpu_jitter_sigma < 0");
  }
  if (gpu_jitter_theta < 0.0 || gpu_jitter_theta > 1.0) {
    return Status::InvalidArgument("gpu_jitter_theta must be in [0, 1]");
  }
  if (balance_coef < 0.0) return Status::InvalidArgument("balance_coef < 0");
  if (balance_strength < 0.0) {
    return Status::InvalidArgument("balance_strength < 0");
  }
  if (balance_tau_steps <= 0.0) {
    return Status::InvalidArgument("balance_tau_steps <= 0");
  }
  FLEXMOE_RETURN_IF_ERROR(scenario.Validate());
  return Status::OK();
}

namespace {

/// The Monte-Carlo calibration below is deterministic in its arguments and
/// identical across every experiment cell of a bench grid, so its result is
/// memoized process-wide. The mutex makes concurrent grid cells safe; the
/// value they observe is identical regardless of which thread fills it.
std::mutex g_calibration_mutex;
std::map<std::tuple<int, int, double, uint64_t>, double>&
CalibrationCache() {
  static std::map<std::tuple<int, int, double, uint64_t>, double> cache;
  return cache;
}

double CalibrateLogitSigmaUncached(int num_experts, int top_count,
                                   double target_share, uint64_t seed);

}  // namespace

double CalibrateLogitSigma(int num_experts, int top_count,
                           double target_share, uint64_t seed) {
  const auto key = std::make_tuple(num_experts, top_count, target_share, seed);
  {
    std::lock_guard<std::mutex> lock(g_calibration_mutex);
    const auto it = CalibrationCache().find(key);
    if (it != CalibrationCache().end()) return it->second;
  }
  const double sigma =
      CalibrateLogitSigmaUncached(num_experts, top_count, target_share, seed);
  std::lock_guard<std::mutex> lock(g_calibration_mutex);
  CalibrationCache().emplace(key, sigma);
  return sigma;
}

namespace {

double CalibrateLogitSigmaUncached(int num_experts, int top_count,
                                   double target_share, uint64_t seed) {
  FLEXMOE_CHECK(num_experts > 0);
  FLEXMOE_CHECK(top_count > 0 && top_count <= num_experts);
  FLEXMOE_CHECK(target_share > 0.0 && target_share <= 1.0);
  // The uniform share (sigma -> 0) lower-bounds achievable top-k share.
  const double uniform_share =
      static_cast<double>(top_count) / static_cast<double>(num_experts);
  if (target_share <= uniform_share) return 0.0;

  // Every bisection step scores the same kTrials x E standard normals from
  // Rng(seed), so they are drawn once, in the order a per-step re-seeded
  // Rng would draw them. A step's logits are `0.0 + sigma * z`, the exact
  // expression Rng::Normal(0.0, sigma) evaluates, so each probability keeps
  // its bits (DESIGN.md Section 4).
  constexpr int kTrials = 256;
  const size_t n = static_cast<size_t>(num_experts);
  std::vector<double> normals(kTrials * n);
  Rng rng(seed);
  for (double& z : normals) z = rng.Normal();

  // sigma > 0 preserves the order of z, so each trial's experts are ranked
  // once (descending, stable) and a step reads its probabilities in that
  // order instead of sorting them.
  std::vector<int> ranked(kTrials * n);
  for (size_t t = 0; t < kTrials; ++t) {
    int* order = &ranked[t * n];
    const double* z = &normals[t * n];
    std::iota(order, order + n, 0);
    std::stable_sort(order, order + n,
                     [z](int a, int b) { return z[a] > z[b]; });
  }

  std::vector<double> logits(n);
  std::vector<double> probs(n);
  auto mean_topk_share = [&](double sigma) {
    double acc = 0.0;
    for (size_t t = 0; t < kTrials; ++t) {
      const double* z = &normals[t * n];
      for (size_t i = 0; i < n; ++i) logits[i] = 0.0 + sigma * z[i];
      SoftmaxInto(logits.data(), num_experts, probs.data());
      const int* order = &ranked[t * n];
      // The ranked read equals the descending sort only if the gathered
      // sequence never increases; otherwise (exp not monotone after
      // rounding) sort, so the result never rests on that property.
      bool descending = true;
      for (size_t i = 1; i < n && descending; ++i) {
        descending = probs[order[i]] <= probs[order[i - 1]];
      }
      double share = 0.0;
      if (descending) {
        for (int i = 0; i < top_count; ++i) share += probs[order[i]];
      } else {
        std::sort(probs.begin(), probs.end(), std::greater<double>());
        for (int i = 0; i < top_count; ++i) {
          share += probs[static_cast<size_t>(i)];
        }
      }
      acc += share;
    }
    return acc / kTrials;
  };

  // Share is monotone in sigma: binary search.
  double lo = 0.0, hi = 8.0;
  for (int iter = 0; iter < 48; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (mean_topk_share(mid) < target_share) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

Result<TraceGenerator> TraceGenerator::Create(
    const TraceGeneratorOptions& options) {
  FLEXMOE_RETURN_IF_ERROR(options.Validate());
  const int top_count =
      options.skew_top_count > 0
          ? options.skew_top_count
          : std::max(1, (options.num_experts * 10 + 32) / 64);
  const double sigma0 =
      options.logit_sigma > 0.0
          ? options.logit_sigma
          : CalibrateLogitSigma(options.num_experts, top_count,
                                options.skew_top_share, options.seed);

  TopKGateOptions gate_opts;
  gate_opts.num_experts = options.num_experts;
  gate_opts.num_gpus = options.num_gpus;
  gate_opts.top_k = options.top_k;
  gate_opts.tokens_per_gpu = options.tokens_per_gpu;
  gate_opts.exact_sampling = options.exact_sampling;
  FLEXMOE_ASSIGN_OR_RETURN(TopKGate gate, TopKGate::Create(gate_opts));

  std::vector<std::unique_ptr<LogitProcess>> processes;
  processes.reserve(static_cast<size_t>(options.num_moe_layers));
  for (int l = 0; l < options.num_moe_layers; ++l) {
    FLEXMOE_ASSIGN_OR_RETURN(
        auto process, MakeLogitProcess(options.scenario, options.num_experts,
                                       sigma0, options.ou_theta));
    processes.push_back(std::move(process));
  }
  return TraceGenerator(options, sigma0, std::move(gate),
                        std::move(processes));
}

TraceGenerator::TraceGenerator(
    const TraceGeneratorOptions& options, double sigma0, TopKGate gate,
    std::vector<std::unique_ptr<LogitProcess>> processes)
    : options_(options),
      sigma0_(sigma0),
      gate_(std::move(gate)),
      rng_(options.seed),
      processes_(std::move(processes)) {
  logits_.resize(static_cast<size_t>(options_.num_moe_layers));
  jitter_.resize(static_cast<size_t>(options_.num_moe_layers));
  for (int l = 0; l < options_.num_moe_layers; ++l) {
    auto& z = logits_[static_cast<size_t>(l)];
    z.resize(static_cast<size_t>(options_.num_experts));
    processes_[static_cast<size_t>(l)]->Init(&rng_, &z);
    auto& layer_jitter = jitter_[static_cast<size_t>(l)];
    layer_jitter.assign(options_.num_gpus, options_.num_experts, 0.0);
    // Row-major [gpu][expert] fill preserves the seed's RNG draw order.
    double* flat = layer_jitter.data();
    for (size_t i = 0; i < layer_jitter.element_count(); ++i) {
      flat[i] = rng_.Normal(0.0, options_.gpu_jitter_sigma);
    }
  }
}

double TraceGenerator::TargetSigma(int64_t t) const {
  if (options_.balance_coef <= 0.0) return sigma0_;
  // Equilibrium shrink factor calibrated against the paper's Figure 2
  // utilization range; approached with time constant balance_tau_steps.
  const double eq_scale =
      1.0 / (1.0 + options_.balance_strength * std::sqrt(options_.balance_coef));
  const double ramp =
      1.0 - std::exp(-static_cast<double>(t) / options_.balance_tau_steps);
  return sigma0_ * (1.0 - (1.0 - eq_scale) * ramp);
}

void TraceGenerator::EvolveLayer(int layer) {
  // The scenario process owns the latent-logit dynamics (the steady
  // process reproduces the pre-catalog OU update byte-for-byte).
  processes_[static_cast<size_t>(layer)]->Evolve(
      step_, TargetSigma(step_), &rng_, &logits_[static_cast<size_t>(layer)]);

  // Per-GPU jitter follows its own faster OU process (flat row-major walk
  // matches the seed's [gpu][expert] RNG draw order).
  auto& layer_jitter = jitter_[static_cast<size_t>(layer)];
  const double jtheta = options_.gpu_jitter_theta;
  const double jnoise = options_.gpu_jitter_sigma * std::sqrt(2.0 * jtheta);
  double* flat = layer_jitter.data();
  for (size_t i = 0; i < layer_jitter.element_count(); ++i) {
    flat[i] += -jtheta * flat[i] + rng_.Normal(0.0, jnoise);
  }
}

void TraceGenerator::JitteredGpuLogits(int layer, Matrix<double>* out) const {
  const auto& z = logits_[static_cast<size_t>(layer)];
  const auto& layer_jitter = jitter_[static_cast<size_t>(layer)];
  const int num_experts = options_.num_experts;
  out->assign(options_.num_gpus, num_experts, 0.0);
  for (int g = 0; g < options_.num_gpus; ++g) {
    double* row = out->row(g);
    const double* j = layer_jitter.row(g);
    for (int e = 0; e < num_experts; ++e) {
      row[e] = z[static_cast<size_t>(e)] + j[e];
    }
  }
}

TraceGenerator::PreparedStep TraceGenerator::Prepare() {
  PreparedStep prepared;
  prepared.gpu_logits.resize(static_cast<size_t>(options_.num_moe_layers));
  for (int l = 0; l < options_.num_moe_layers; ++l) {
    EvolveLayer(l);
    JitteredGpuLogits(l, &prepared.gpu_logits[static_cast<size_t>(l)]);
  }
  // The step's sampling substream: one word of the evolution stream, so
  // the next step's evolution does not wait for this step's sampling.
  prepared.sample_seed = rng_.Next();
  ++step_;
  return prepared;
}

std::vector<Assignment> TraceGenerator::Sample(
    const PreparedStep& prepared) const {
  FLEXMOE_CHECK(static_cast<int>(prepared.gpu_logits.size()) ==
                options_.num_moe_layers);
  Rng rng(prepared.sample_seed);
  std::vector<Assignment> out;
  out.reserve(prepared.gpu_logits.size());
  for (const Matrix<double>& gpu_logits : prepared.gpu_logits) {
    out.push_back(gate_.Sample(gpu_logits, &rng));
  }
  return out;
}

namespace {
constexpr uint32_t kCheckpointMagic = 0x464d4743;  // "FMGC"
// Version 2: per-step sampling substreams. A version 1 checkpoint was cut
// from the single-stream layout, and resuming it here would make a stream
// no generator ever produced.
constexpr uint32_t kCheckpointVersion = 2;
}  // namespace

std::string TraceGenerator::SaveCheckpoint() const {
  std::string out;
  PutPod(kCheckpointMagic, &out);
  PutPod(kCheckpointVersion, &out);
  // Shape + scenario fingerprint: enough to reject a restore onto a
  // generator built from different options.
  PutPod<int32_t>(options_.num_moe_layers, &out);
  PutPod<int32_t>(options_.num_experts, &out);
  PutPod<int32_t>(options_.num_gpus, &out);
  PutPod<uint64_t>(options_.seed, &out);
  PutPod<uint64_t>(options_.scenario.name.size(), &out);
  out.append(options_.scenario.name);

  PutPod<int64_t>(step_, &out);
  PutPod(rng_.SaveState(), &out);
  for (int l = 0; l < options_.num_moe_layers; ++l) {
    PutDoubleVec(logits_[static_cast<size_t>(l)], &out);
    const auto& jitter = jitter_[static_cast<size_t>(l)];
    PutPod<uint64_t>(jitter.element_count(), &out);
    out.append(reinterpret_cast<const char*>(jitter.data()),
               jitter.element_count() * sizeof(double));
    processes_[static_cast<size_t>(l)]->SaveState(&out);
  }
  return out;
}

Status TraceGenerator::RestoreCheckpoint(const std::string& bytes) {
  const char* cursor = bytes.data();
  const char* end = bytes.data() + bytes.size();
  uint32_t magic = 0, version = 0;
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &magic));
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &version));
  if (magic != kCheckpointMagic) {
    return Status::InvalidArgument("not a trace-generator checkpoint");
  }
  if (version != kCheckpointVersion) {
    return Status::InvalidArgument(
        StrFormat("trace-generator checkpoint version %u; this generator "
                  "reads version %u",
                  version, kCheckpointVersion));
  }
  int32_t layers = 0, experts = 0, gpus = 0;
  uint64_t seed = 0, name_len = 0;
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &layers));
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &experts));
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &gpus));
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &seed));
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &name_len));
  // Unsigned compare: a hostile length with the high bit set must not
  // slip past as a negative ptrdiff_t and reach the string constructor.
  if (name_len > static_cast<uint64_t>(end - cursor)) {
    return Status::InvalidArgument("checkpoint truncated");
  }
  const std::string scenario(cursor, static_cast<size_t>(name_len));
  cursor += name_len;
  if (layers != options_.num_moe_layers || experts != options_.num_experts ||
      gpus != options_.num_gpus || seed != options_.seed ||
      scenario != options_.scenario.name) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint fingerprint [%d layers x %d experts x %d gpus, seed "
        "%llu, %s] does not match this generator",
        layers, experts, gpus, static_cast<unsigned long long>(seed),
        scenario.c_str()));
  }

  int64_t step = 0;
  Rng::State rng_state;
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &step));
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &rng_state));
  for (int l = 0; l < options_.num_moe_layers; ++l) {
    auto& z = logits_[static_cast<size_t>(l)];
    FLEXMOE_RETURN_IF_ERROR(GetDoubleVec(&cursor, end, z.size(), &z));
    auto& jitter = jitter_[static_cast<size_t>(l)];
    uint64_t count = 0;
    FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &count));
    if (count != jitter.element_count()) {
      return Status::InvalidArgument("checkpoint jitter size mismatch");
    }
    if (end - cursor < static_cast<ptrdiff_t>(count * sizeof(double))) {
      return Status::InvalidArgument("checkpoint truncated");
    }
    std::memcpy(jitter.data(), cursor,
                static_cast<size_t>(count) * sizeof(double));
    cursor += count * sizeof(double);
    FLEXMOE_RETURN_IF_ERROR(
        processes_[static_cast<size_t>(l)]->RestoreState(&cursor, end));
  }
  if (cursor != end) {
    return Status::InvalidArgument("checkpoint has trailing bytes");
  }
  step_ = step;
  rng_.RestoreState(rng_state);
  return Status::OK();
}

}  // namespace flexmoe
