// Model zoo mirroring the paper's Table 1 (BERT-MoE, GPT-MoE, Swin-MoE in
// small/large widths) plus the sizing formulas used by every cost model.
//
// Swin's per-stage dimensions are collapsed to its MoE stage (stage-3 width
// of Swin-B), which is where Swin-MoE places experts; this matches the
// parameter totals in Table 1 to within a few percent.

#ifndef FLEXMOE_MOE_MODEL_CONFIG_H_
#define FLEXMOE_MOE_MODEL_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace flexmoe {

enum class ModelFamily { kBert, kGpt, kSwin };

/// \brief Static description of one MoE-augmented transformer.
struct ModelConfig {
  std::string name;
  ModelFamily family = ModelFamily::kBert;

  int num_layers = 12;      ///< total transformer layers
  int num_moe_layers = 6;   ///< layers whose FFN is replaced by an MoE layer
  int d_model = 768;
  int d_ffn = 3072;
  int num_experts = 32;
  int top_k = 2;            ///< Top-2 gate (GShard/GLaM/V-MoE convention)

  /// Tokens contributed by each GPU per training step (per-GPU micro-batch
  /// x sequence length for NLP; images x patches for Swin).
  int64_t tokens_per_gpu = 8192;

  /// Training dtype widths.
  double param_bytes = 2.0;       ///< fp16 weights
  double grad_bytes = 2.0;        ///< fp16 gradients (AllReduce payload)
  double token_bytes() const { return 2.0 * d_model; }  ///< fp16 activations

  /// Mixed-precision Adam model states moved by Expand/Migrate:
  /// fp16 param + fp32 master + fp32 momentum + fp32 variance = 14 B/param.
  double model_state_bytes_per_param = 14.0;

  // --- Sizing -----------------------------------------------------------

  /// Parameters of one expert FFN (two linear layers + biases).
  int64_t expert_params() const;

  /// Bytes of one expert's gradients (the per-expert AllReduce payload).
  double expert_grad_bytes() const;

  /// Bytes of one expert's model states (the Expand/Migrate payload).
  double expert_state_bytes() const;

  /// FLOPs for one token's forward pass through one expert (two GEMMs).
  double expert_fwd_flops_per_token() const;

  /// FLOPs forward+backward (backward ~ 2x forward).
  double expert_fwdbwd_flops_per_token() const;

  /// Approximate total parameter count (for the Table 1 "Params" column).
  double total_params() const;

  /// FLOPs/token (fwd+bwd) of all non-MoE compute: attention everywhere and
  /// dense FFNs in non-MoE layers, per layer-stack traversal.
  double non_moe_fwdbwd_flops_per_token() const;

  /// Parameters outside the expert networks (DP-replicated, synchronized by
  /// the ordinary data-parallel AllReduce every step).
  double non_moe_params() const;

  Status Validate() const;
};

/// Presets from Table 1.
ModelConfig BertMoES();
ModelConfig BertMoEL();
ModelConfig GptMoES();
ModelConfig GptMoEL();
ModelConfig SwinMoES();
ModelConfig SwinMoEL();

/// All six presets in Table 1 order.
std::vector<ModelConfig> AllModelPresets();

/// Case-insensitive lookup ("bert-moe-s", "GPT-MoE-L", ...).
Result<ModelConfig> ModelByName(const std::string& name);

}  // namespace flexmoe

#endif  // FLEXMOE_MOE_MODEL_CONFIG_H_
