// Non-MoE transformer cost model: attention, dense FFNs, gate and
// optimizer compute. Every system pays the same non-MoE cost (the paper,
// Section 5.2: "FlexMoE only optimizes the execution of the expert
// networks"), so this model is shared.

#ifndef FLEXMOE_MOE_TRANSFORMER_H_
#define FLEXMOE_MOE_TRANSFORMER_H_

#include "moe/model_config.h"
#include "topology/profile.h"

namespace flexmoe {

/// \brief Per-step, per-GPU compute seconds spent outside expert networks.
double NonMoEComputeSeconds(const ModelConfig& model,
                            const HardwareProfile& profile);

}  // namespace flexmoe

#endif  // FLEXMOE_MOE_TRANSFORMER_H_
