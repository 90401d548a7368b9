#include "gate/gate.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace flexmoe {

namespace {
/// Per-thread sampling scratch, sized to the gate's expert count. thread_local
/// (as the router's RouteScratch) so concurrent Sample() calls on one gate
/// never share a buffer.
struct GateScratch {
  std::vector<double> probs;
  std::vector<double> round;
  std::vector<int64_t> counts;
};

/// This thread's scratch with every buffer holding `n` elements.
GateScratch& Scratch(int n) {
  static thread_local GateScratch scratch;
  const size_t size = static_cast<size_t>(n);
  if (scratch.probs.size() != size) {
    scratch.probs.resize(size);
    scratch.round.resize(size);
    scratch.counts.resize(size);
  }
  return scratch;
}

}  // namespace

void SoftmaxInto(const double* logits, int n, double* out) {
  FLEXMOE_CHECK(n > 0);
  double m = logits[0];
  for (int i = 1; i < n; ++i) m = std::max(m, logits[i]);
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    out[i] = std::exp(logits[i] - m);
    total += out[i];
  }
  // Division (not reciprocal-multiply): the goldens' trace hashes and the
  // calibrated σ0 pin these bits.
  for (int i = 0; i < n; ++i) out[i] /= total;
}

std::vector<double> Softmax(const std::vector<double>& logits) {
  FLEXMOE_CHECK(!logits.empty());
  std::vector<double> probs(logits.size());
  SoftmaxInto(logits.data(), static_cast<int>(logits.size()), probs.data());
  return probs;
}

Status TopKGateOptions::Validate() const {
  if (num_experts <= 0) return Status::InvalidArgument("num_experts <= 0");
  if (num_gpus <= 0) return Status::InvalidArgument("num_gpus <= 0");
  if (top_k <= 0 || top_k > num_experts) {
    return Status::InvalidArgument("top_k out of range");
  }
  if (tokens_per_gpu <= 0) {
    return Status::InvalidArgument("tokens_per_gpu <= 0");
  }
  return Status::OK();
}

TopKGate::TopKGate(const TopKGateOptions& options) : options_(options) {}

Result<TopKGate> TopKGate::Create(const TopKGateOptions& options) {
  FLEXMOE_RETURN_IF_ERROR(options.Validate());
  return TopKGate(options);
}

Assignment TopKGate::Sample(const Matrix<double>& gpu_logits,
                            Rng* rng) const {
  FLEXMOE_CHECK(gpu_logits.rows() == options_.num_gpus);
  FLEXMOE_CHECK(gpu_logits.cols() == options_.num_experts);
  Assignment out(options_.num_experts, options_.num_gpus);
  double* probs = Scratch(options_.num_experts).probs.data();
  for (int g = 0; g < options_.num_gpus; ++g) {
    SoftmaxInto(gpu_logits.row(g), options_.num_experts, probs);
    SampleMultinomial(probs, g, rng, &out);
  }
  return out;
}

Assignment TopKGate::Sample(const std::vector<std::vector<double>>& gpu_logits,
                            Rng* rng) const {
  FLEXMOE_CHECK(static_cast<int>(gpu_logits.size()) == options_.num_gpus);
  Matrix<double> flat(options_.num_gpus, options_.num_experts);
  for (int g = 0; g < options_.num_gpus; ++g) {
    const auto& row = gpu_logits[static_cast<size_t>(g)];
    FLEXMOE_CHECK(static_cast<int>(row.size()) == options_.num_experts);
    std::copy(row.begin(), row.end(), flat.row(g));
  }
  return Sample(flat, rng);
}

namespace {

/// Exact marginal of the SECOND choice under without-replacement top-k:
/// P(e second) = sum_{f != e} p_f * p_e / (1 - p_f)
///             = p_e * (S - p_e / (1 - p_e)),  S = sum_f p_f / (1 - p_f).
/// Allocation-free: writes into `out` (size n; must not alias `probs`).
void SecondChoiceMarginalInto(const double* probs, int n, double* out) {
  constexpr double kEps = 1e-12;
  // out[e] holds the odds probs[e] / (1 - probs[e]) until it is replaced
  // by the unnormalized marginal.
  double s = 0.0;
  for (int e = 0; e < n; ++e) {
    out[e] = probs[e] / std::max(kEps, 1.0 - probs[e]);
    s += out[e];
  }
  double total = 0.0;
  for (int e = 0; e < n; ++e) {
    out[e] = probs[e] * std::max(0.0, s - out[e]);
    total += out[e];
  }
  if (total <= 0.0) {
    for (int e = 0; e < n; ++e) out[e] = probs[e];
    return;
  }
  for (int e = 0; e < n; ++e) out[e] /= total;
}

}  // namespace

void TopKGate::SampleMultinomial(const double* probs, int gpu, Rng* rng,
                                 Assignment* out) const {
  // Round 1 samples from the gate distribution itself; round 2 samples
  // from the exact second-choice marginal of without-replacement top-k.
  // Rounds beyond 2 (the paper uses Top-2 everywhere) reuse the round-2
  // marginal — a documented approximation.
  const int n = options_.num_experts;
  GateScratch& scratch = Scratch(n);
  int64_t* counts = scratch.counts.data();
  const double* current = probs;
  for (int round = 0; round < options_.top_k; ++round) {
    rng->MultinomialInto(options_.tokens_per_gpu, current, n, counts);
    for (int e = 0; e < n; ++e) {
      if (counts[e] > 0) out->add(e, gpu, counts[e]);
    }
    if (round == 0 && options_.top_k > 1) {
      SecondChoiceMarginalInto(probs, n, scratch.round.data());
      current = scratch.round.data();
    }
  }
}

}  // namespace flexmoe
