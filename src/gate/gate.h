// Top-K gate simulation: converts per-GPU expert logits into the routing
// count matrix I[e][g] with one count-level multinomial per GPU: round 1
// draws Rng::MultinomialInto over the softmax, round 2 over the exact
// second-choice marginal of without-replacement top-k.
//
// The MoE system never inspects token values — only routing counts — so a
// count-accurate gate exercises exactly the code paths the paper's system
// optimizes.
//
// Sampling is allocation-free per call and safe to run concurrently: its
// scratch buffers are thread_local, so one gate can serve every thread
// that samples a routing step (gate/trace_source.h runs several at once,
// each on its own per-step Rng substream). gate_sampler_test.cc checks
// the sampler against the analytic top-2 marginal; the goldens' trace
// hashes pin its stream bit-for-bit.

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

  TopKGateOptions options_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_GATE_GATE_H_
