// Top-K gate simulation: converts per-GPU expert logits into the routing
// count matrix I[e][g]. Two sampling modes:
//  * count-level multinomial (fast; used for full training runs): round 1
//    draws Rng::MultinomialInto over the softmax, round 2 over the exact
//    second-choice marginal of without-replacement top-k, and
//  * exact per-token top-k (slow; used by tests to validate the
//    multinomial approximation): alias-table Plackett-Luce sequential
//    sampling, or a per-token Gumbel sweep when top_k > 8.
//
// The MoE system never inspects token values — only routing counts — so a
// count-accurate gate exercises exactly the code paths the paper's system
// optimizes.
//
// Sampling is allocation-free per call: the gate owns scratch buffers that
// are reused across Sample() invocations. A TopKGate instance is therefore
// NOT safe for concurrent Sample() calls — give each thread (each grid
// cell) its own gate, as the experiment harness does. gate_sampler_test.cc
// checks both modes against the analytic top-2 marginal; the goldens'
// trace hashes pin the multinomial stream bit-for-bit.

#ifndef FLEXMOE_GATE_GATE_H_
#define FLEXMOE_GATE_GATE_H_

#include <vector>

#include "moe/moe_layer.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace flexmoe {

/// \brief Numerically stable softmax.
std::vector<double> Softmax(const std::vector<double>& logits);

/// \brief Allocation-free softmax into a caller-provided buffer (`out` may
/// alias `logits`). `n` > 0 elements.
void SoftmaxInto(const double* logits, int n, double* out);

/// \brief Gate configuration.
struct TopKGateOptions {
  int num_experts = 64;
  int num_gpus = 64;
  int top_k = 2;
  int64_t tokens_per_gpu = 8192;
  /// Exact per-token top-k sampling instead of multinomial counts.
  bool exact_sampling = false;

  Status Validate() const;
};

/// \brief Samples routing counts from per-GPU logits.
class TopKGate {
 public:
  static Result<TopKGate> Create(const TopKGateOptions& options);

  /// \param gpu_logits one row of logits (size num_experts) per GPU.
  /// Produces an Assignment whose total equals tokens_per_gpu x num_gpus x
  /// top_k (every token yields exactly top_k expert assignments).
  Assignment Sample(const Matrix<double>& gpu_logits, Rng* rng) const;

  /// Nested-vector convenience overload (tests, examples).
  Assignment Sample(const std::vector<std::vector<double>>& gpu_logits,
                    Rng* rng) const;

  const TopKGateOptions& options() const { return options_; }

 private:
  explicit TopKGate(const TopKGateOptions& options);

  void SampleMultinomial(const double* probs, int gpu, Rng* rng,
                         Assignment* out) const;
  void SampleExact(const double* logits, int gpu, Rng* rng,
                   Assignment* out) const;
  // Fallback for top_k > 8: the k largest Gumbel-perturbed logits.
  void SampleExactGumbel(const double* logits, int gpu, Rng* rng,
                         Assignment* out) const;

  TopKGateOptions options_;

  // Per-call scratch (see header comment: one gate per thread). Sized once
  // at construction to num_experts; mutable because Sample() is logically
  // const.
  mutable std::vector<double> probs_scratch_;
  mutable std::vector<double> round_scratch_;
  mutable std::vector<int64_t> counts_scratch_;
  // Alias-table scratch for the exact sampler (Vose construction).
  mutable std::vector<double> alias_prob_scratch_;
  mutable std::vector<int> alias_idx_scratch_;
  mutable std::vector<int> alias_work_scratch_;
  mutable std::vector<int> alias_work2_scratch_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_GATE_GATE_H_
