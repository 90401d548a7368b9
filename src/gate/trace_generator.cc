#include "gate/trace_generator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <numeric>
#include <tuple>
#include <utility>

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
  // NaN fails every range comparison, so finiteness is checked too.
  if (!std::isfinite(logit_sigma) || logit_sigma < 0.0) {
    return Status::InvalidArgument("logit_sigma must be finite and >= 0");
  }
  if (!std::isfinite(balance_coef) || balance_coef < 0.0) {
    return Status::InvalidArgument("balance_coef must be finite and >= 0");
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
  const int top_count = std::max(1, (options.num_experts * 10 + 32) / 64);
  const double sigma0 =
      options.logit_sigma > 0.0
          ? options.logit_sigma
          : CalibrateLogitSigma(options.num_experts, top_count,
                                kSkewTopShare, options.seed);

  TopKGateOptions gate_opts;
  gate_opts.num_experts = options.num_experts;
  gate_opts.num_gpus = options.num_gpus;
  gate_opts.top_k = options.top_k;
  gate_opts.tokens_per_gpu = options.tokens_per_gpu;
  FLEXMOE_ASSIGN_OR_RETURN(TopKGate gate, TopKGate::Create(gate_opts));

  std::vector<std::unique_ptr<LogitProcess>> processes;
  processes.reserve(static_cast<size_t>(options.num_moe_layers));
  for (int l = 0; l < options.num_moe_layers; ++l) {
    FLEXMOE_ASSIGN_OR_RETURN(
        auto process,
        MakeLogitProcess(options.scenario, options.num_experts, sigma0));
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
      flat[i] = rng_.Normal(0.0, kGpuJitterSigma);
    }
  }
}

double TraceGenerator::TargetSigma(int64_t t) const {
  if (options_.balance_coef <= 0.0) return sigma0_;
  // Equilibrium shrink factor calibrated against the paper's Figure 2
  // utilization range; approached with time constant kBalanceTauSteps.
  const double eq_scale =
      1.0 / (1.0 + kBalanceStrength * std::sqrt(options_.balance_coef));
  const double ramp =
      1.0 - std::exp(-static_cast<double>(t) / kBalanceTauSteps);
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
  const double jtheta = kGpuJitterTheta;
  const double jnoise = kGpuJitterSigma * std::sqrt(2.0 * jtheta);
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

}  // namespace flexmoe
