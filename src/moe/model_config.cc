#include "moe/model_config.h"

#include <vector>

#include "util/string_util.h"

namespace flexmoe {

int64_t ModelConfig::expert_params() const {
  // W1: d_model x d_ffn, b1: d_ffn, W2: d_ffn x d_model, b2: d_model.
  return 2LL * d_model * d_ffn + d_ffn + d_model;
}

double ModelConfig::expert_grad_bytes() const {
  return static_cast<double>(expert_params()) * grad_bytes;
}

double ModelConfig::expert_state_bytes() const {
  return static_cast<double>(expert_params()) * model_state_bytes_per_param;
}

double ModelConfig::expert_fwd_flops_per_token() const {
  // Two GEMMs at 2 FLOPs per multiply-accumulate.
  return 2.0 * 2.0 * static_cast<double>(d_model) * d_ffn;
}

double ModelConfig::expert_fwdbwd_flops_per_token() const {
  return 3.0 * expert_fwd_flops_per_token();
}

double ModelConfig::total_params() const {
  const double attention = 4.0 * static_cast<double>(d_model) * d_model;
  const double dense_ffn = 2.0 * static_cast<double>(d_model) * d_ffn;
  const double gate = static_cast<double>(d_model) * num_experts;
  const int dense_layers = num_layers - num_moe_layers;
  return static_cast<double>(num_layers) * attention +
         static_cast<double>(dense_layers) * dense_ffn +
         static_cast<double>(num_moe_layers) *
             (gate + static_cast<double>(expert_params()) * num_experts);
}

double ModelConfig::non_moe_fwdbwd_flops_per_token() const {
  // Attention projections (Q,K,V,O): 4 GEMMs of d_model x d_model.
  const double attention_fwd = 4.0 * 2.0 * static_cast<double>(d_model) * d_model;
  const double dense_ffn_fwd = 2.0 * 2.0 * static_cast<double>(d_model) * d_ffn;
  const int dense_layers = num_layers - num_moe_layers;
  const double fwd = static_cast<double>(num_layers) * attention_fwd +
                     static_cast<double>(dense_layers) * dense_ffn_fwd;
  return 3.0 * fwd;
}

double ModelConfig::non_moe_params() const {
  const double attention = 4.0 * static_cast<double>(d_model) * d_model;
  const double dense_ffn = 2.0 * static_cast<double>(d_model) * d_ffn;
  const int dense_layers = num_layers - num_moe_layers;
  return static_cast<double>(num_layers) * attention +
         static_cast<double>(dense_layers) * dense_ffn;
}

Status ModelConfig::Validate() const {
  if (num_layers <= 0) return Status::InvalidArgument("num_layers <= 0");
  if (num_moe_layers <= 0 || num_moe_layers > num_layers) {
    return Status::InvalidArgument("num_moe_layers out of range");
  }
  if (d_model <= 0 || d_ffn <= 0) {
    return Status::InvalidArgument("model dims must be positive");
  }
  if (num_experts <= 0) return Status::InvalidArgument("num_experts <= 0");
  if (top_k <= 0 || top_k > num_experts) {
    return Status::InvalidArgument("top_k out of range");
  }
  if (tokens_per_gpu <= 0) {
    return Status::InvalidArgument("tokens_per_gpu <= 0");
  }
  return Status::OK();
}

ModelConfig BertMoES() {
  ModelConfig c;
  c.name = "BERT-MoE-S";
  c.family = ModelFamily::kBert;
  c.num_layers = 12;
  c.num_moe_layers = 6;
  c.d_model = 768;
  c.d_ffn = 3072;
  c.num_experts = 32;
  c.tokens_per_gpu = 8192;
  return c;
}

ModelConfig BertMoEL() {
  ModelConfig c;
  c.name = "BERT-MoE-L";
  c.family = ModelFamily::kBert;
  c.num_layers = 24;
  c.num_moe_layers = 12;
  c.d_model = 1024;
  c.d_ffn = 4096;
  c.num_experts = 64;
  c.tokens_per_gpu = 8192;
  return c;
}

ModelConfig GptMoES() {
  ModelConfig c;
  c.name = "GPT-MoE-S";
  c.family = ModelFamily::kGpt;
  c.num_layers = 12;
  c.num_moe_layers = 6;
  c.d_model = 768;
  c.d_ffn = 3072;
  c.num_experts = 32;
  c.tokens_per_gpu = 8192;
  return c;
}

ModelConfig GptMoEL() {
  ModelConfig c;
  c.name = "GPT-MoE-L";
  c.family = ModelFamily::kGpt;
  c.num_layers = 24;
  // 18 of 24 layers carry experts, matching the 39B total of Table 1.
  c.num_moe_layers = 18;
  c.d_model = 2048;
  c.d_ffn = 8192;
  c.num_experts = 64;
  c.tokens_per_gpu = 8192;
  return c;
}

ModelConfig SwinMoES() {
  ModelConfig c;
  c.name = "Swin-MoE-S";
  c.family = ModelFamily::kSwin;
  c.num_layers = 24;
  c.num_moe_layers = 13;
  // Stage-3 width of Swin-B, where Swin-MoE places its experts.
  c.d_model = 512;
  c.d_ffn = 2048;
  c.num_experts = 32;
  // 64 images/GPU x 196 patches after merging.
  c.tokens_per_gpu = 12544;
  return c;
}

ModelConfig SwinMoEL() {
  ModelConfig c = SwinMoES();
  c.name = "Swin-MoE-L";
  c.num_experts = 64;
  return c;
}

std::vector<ModelConfig> AllModelPresets() {
  return {BertMoES(), BertMoEL(), GptMoES(),
          GptMoEL(),  SwinMoES(), SwinMoEL()};
}

Result<ModelConfig> ModelByName(const std::string& name) {
  const std::string key = ToLower(name);
  for (const ModelConfig& c : AllModelPresets()) {
    if (ToLower(c.name) == key) return c;
  }
  return Status::NotFound(StrFormat("unknown model preset '%s'", name.c_str()));
}

}  // namespace flexmoe
