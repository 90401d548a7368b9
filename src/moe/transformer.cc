#include "moe/transformer.h"

namespace flexmoe {

double NonMoEComputeSeconds(const ModelConfig& model,
                            const HardwareProfile& profile) {
  const double compute = profile.ComputeSeconds(
      static_cast<double>(model.tokens_per_gpu),
      model.non_moe_fwdbwd_flops_per_token());
  // Optimizer update touches every local non-MoE parameter's model states
  // (~16 B/param); modeled as memory-bandwidth bound at ~2 TB/s (A100 HBM).
  const double optimizer = model.non_moe_params() * 16.0 / 2.0e12;
  return compute + optimizer;
}

}  // namespace flexmoe
