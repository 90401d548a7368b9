#include "gate/gate.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace flexmoe {

namespace {
/// Largest top_k served by the alias-table exact sampler's fixed-size
/// chosen-set array; beyond it the per-token Gumbel sweep is used.
constexpr int kMaxFastTopK = 8;

/// Per-thread sampling scratch, sized to the gate's expert count. thread_local
/// (as the router's RouteScratch) so concurrent Sample() calls on one gate
/// never share a buffer.
struct GateScratch {
  std::vector<double> probs;
  std::vector<double> round;
  std::vector<int64_t> counts;
  // Alias-table scratch for the exact sampler (Vose construction).
  std::vector<double> alias_prob;
  std::vector<int> alias_idx;
  std::vector<int> alias_small;
  std::vector<int> alias_large;
};

/// This thread's scratch with every buffer holding `n` elements.
GateScratch& Scratch(int n) {
  static thread_local GateScratch scratch;
  const size_t size = static_cast<size_t>(n);
  if (scratch.probs.size() != size) {
    scratch.probs.resize(size);
    scratch.round.resize(size);
    scratch.counts.resize(size);
    scratch.alias_prob.resize(size);
    scratch.alias_idx.resize(size);
    scratch.alias_small.resize(size);
    scratch.alias_large.resize(size);
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
  // The alias-table exact path tracks chosen experts in a fixed-size
  // array; larger top_k (never used — the paper is Top-2 throughout)
  // falls back to the per-token Gumbel sweep.
  const bool gumbel_sweep = options_.top_k > kMaxFastTopK;
  double* probs = Scratch(options_.num_experts).probs.data();
  for (int g = 0; g < options_.num_gpus; ++g) {
    const double* logits = gpu_logits.row(g);
    if (options_.exact_sampling) {
      if (gumbel_sweep) {
        SampleExactGumbel(logits, g, rng, &out);
      } else {
        SampleExact(logits, g, rng, &out);
      }
    } else {
      SoftmaxInto(logits, options_.num_experts, probs);
      SampleMultinomial(probs, g, rng, &out);
    }
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

void TopKGate::SampleExact(const double* logits, int gpu, Rng* rng,
                           Assignment* out) const {
  // Exact without-replacement top-k without the per-token O(E) Gumbel
  // sweep: Gumbel top-k is distributionally identical to Plackett-Luce
  // sequential sampling (draw from softmax(p), remove, repeat), so each
  // token costs k alias-table draws (plus rejection of already-chosen
  // experts) instead of E Gumbel perturbations + a partial sort. The
  // distribution is exact — gate_sampler_test.cc chi-squares it against
  // the analytic top-2 marginal.
  const int k = options_.top_k;
  const int n = options_.num_experts;
  GateScratch& scratch = Scratch(n);
  double* probs = scratch.probs.data();
  SoftmaxInto(logits, n, probs);

  // Vose alias-table construction: O(E) once per (GPU, step), amortized
  // over tokens_per_gpu draws.
  double* ap = scratch.alias_prob.data();
  int* alias = scratch.alias_idx.data();
  int* small_stack = scratch.alias_small.data();
  int* large_stack = scratch.alias_large.data();
  int ns = 0, nl = 0;
  for (int e = 0; e < n; ++e) {
    ap[e] = probs[e] * static_cast<double>(n);
    alias[e] = e;
    if (ap[e] < 1.0) {
      small_stack[ns++] = e;
    } else {
      large_stack[nl++] = e;
    }
  }
  while (ns > 0 && nl > 0) {
    const int s = small_stack[--ns];
    const int l = large_stack[--nl];
    alias[s] = l;
    ap[l] = (ap[l] + ap[s]) - 1.0;
    if (ap[l] < 1.0) {
      small_stack[ns++] = l;
    } else {
      large_stack[nl++] = l;
    }
  }
  while (nl > 0) ap[large_stack[--nl]] = 1.0;
  while (ns > 0) ap[small_stack[--ns]] = 1.0;

  int64_t* counts = scratch.counts.data();
  std::fill(counts, counts + n, 0);
  int chosen[kMaxFastTopK];
  for (int64_t t = 0; t < options_.tokens_per_gpu; ++t) {
    int picked = 0;
    while (picked < k) {
      int e = -1;
      // Rejection-sample an unchosen expert from the alias table; under
      // heavy skew (a chosen expert holding most of the mass) fall back
      // to an exact CDF walk over the remaining experts.
      for (int tries = 0; tries < 32; ++tries) {
        const int i = static_cast<int>(
            rng->UniformInt(static_cast<uint64_t>(n)));
        const int cand = rng->Uniform() < ap[i] ? i : alias[i];
        bool dup = false;
        for (int j = 0; j < picked; ++j) dup = dup || chosen[j] == cand;
        if (!dup) {
          e = cand;
          break;
        }
      }
      if (e < 0) {
        double remaining = 1.0;
        for (int j = 0; j < picked; ++j) remaining -= probs[chosen[j]];
        double u = rng->Uniform() * std::max(remaining, 1e-300);
        for (int cand = 0; cand < n; ++cand) {
          bool dup = false;
          for (int j = 0; j < picked; ++j) dup = dup || chosen[j] == cand;
          if (dup) continue;
          u -= probs[cand];
          e = cand;
          if (u < 0.0) break;
        }
      }
      chosen[picked] = e;
      ++picked;
      ++counts[e];
    }
  }
  // One Assignment update per expert instead of one per token-choice.
  for (int e = 0; e < n; ++e) {
    if (counts[e] > 0) out->add(e, gpu, counts[e]);
  }
}

void TopKGate::SampleExactGumbel(const double* logits, int gpu, Rng* rng,
                                 Assignment* out) const {
  const int k = options_.top_k;
  const size_t n = static_cast<size_t>(options_.num_experts);
  std::vector<double> perturbed(n);
  std::vector<int> order(n);
  for (int64_t t = 0; t < options_.tokens_per_gpu; ++t) {
    for (size_t e = 0; e < n; ++e) {
      perturbed[e] = logits[e] + rng->Gumbel();
    }
    // Partial selection of the k largest perturbed logits: the Gumbel-max
    // trick makes this an exact sample of without-replacement top-k.
    for (size_t e = 0; e < order.size(); ++e) order[e] = static_cast<int>(e);
    std::partial_sort(order.begin(), order.begin() + k, order.end(),
                      [&](int a, int b) {
                        return perturbed[static_cast<size_t>(a)] >
                               perturbed[static_cast<size_t>(b)];
                      });
    for (int i = 0; i < k; ++i) out->add(order[static_cast<size_t>(i)], gpu, 1);
  }
}

}  // namespace flexmoe
