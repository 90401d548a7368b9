// Token assignment containers for one MoE layer: the paper's `I` matrix
// (I[e][g] = tokens on source GPU g routed by the gate to expert e).

#ifndef FLEXMOE_MOE_MOE_LAYER_H_
#define FLEXMOE_MOE_MOE_LAYER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/matrix.h"
#include "util/status.h"

namespace flexmoe {

/// \brief The gate's output for one MoE layer at one step: how many tokens
/// each source GPU sends to each expert (the paper's I, with I[e][g]).
class Assignment {
 public:
  Assignment() = default;
  Assignment(int num_experts, int num_gpus);

  int num_experts() const { return num_experts_; }
  int num_gpus() const { return num_gpus_; }

  int64_t at(int expert, int gpu) const;
  void set(int expert, int gpu, int64_t tokens);
  void add(int expert, int gpu, int64_t tokens);

  /// Contiguous per-GPU counts of `expert` (size num_gpus). Unchecked hot-
  /// path accessor for inner loops; prefer at() elsewhere.
  const int64_t* row(int expert) const { return counts_.row(expert); }
  int64_t* mutable_row(int expert) { return counts_.row(expert); }

  /// Total tokens routed to `expert` across all source GPUs (I_e).
  int64_t ExpertTotal(int expert) const;

  /// Total tokens originating on `gpu`.
  int64_t GpuTotal(int gpu) const;

  /// Grand total of routed token-assignments (B x top_k for a full batch).
  int64_t Total() const;

  /// Per-expert totals as doubles (for CDF/statistics helpers).
  std::vector<double> ExpertLoads() const;

 private:
  int num_experts_ = 0;
  int num_gpus_ = 0;
  Matrix<int64_t> counts_;  ///< row-major [expert][gpu]
};

}  // namespace flexmoe

#endif  // FLEXMOE_MOE_MOE_LAYER_H_
