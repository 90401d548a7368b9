// Tests for the model zoo (Table 1) and sizing formulas.

#include <gtest/gtest.h>

#include "moe/model_config.h"
#include "moe/transformer.h"

namespace flexmoe {
namespace {

TEST(ModelConfigTest, AllPresetsValid) {
  for (const ModelConfig& c : AllModelPresets()) {
    EXPECT_TRUE(c.Validate().ok()) << c.name;
    EXPECT_EQ(c.top_k, 2) << c.name;  // paper uses Top-2 gates everywhere
  }
}

TEST(ModelConfigTest, Table1ParameterCounts) {
  // Totals must land near Table 1's "Params." column.
  const ModelConfig bert_s = BertMoES();
  EXPECT_NEAR(bert_s.total_params(), 0.988e9, 0.12e9);
  const ModelConfig bert_l = BertMoEL();
  EXPECT_NEAR(bert_l.total_params(), 6.69e9, 0.5e9);
  const ModelConfig gpt_l = GptMoEL();
  EXPECT_NEAR(gpt_l.total_params(), 39e9, 3e9);
  const ModelConfig swin_s = SwinMoES();
  EXPECT_NEAR(swin_s.total_params(), 946e6, 150e6);
  const ModelConfig swin_l = SwinMoEL();
  EXPECT_NEAR(swin_l.total_params(), 1.83e9, 0.3e9);
}

TEST(ModelConfigTest, Table1ExpertCounts) {
  EXPECT_EQ(BertMoES().num_experts, 32);
  EXPECT_EQ(BertMoEL().num_experts, 64);
  EXPECT_EQ(GptMoES().num_experts, 32);
  EXPECT_EQ(GptMoEL().num_experts, 64);
  EXPECT_EQ(SwinMoES().num_experts, 32);
  EXPECT_EQ(SwinMoEL().num_experts, 64);
}

TEST(ModelConfigTest, ExpertSizing) {
  const ModelConfig c = GptMoES();  // d=768, ffn=3072
  EXPECT_EQ(c.expert_params(), 2LL * 768 * 3072 + 3072 + 768);
  EXPECT_DOUBLE_EQ(c.expert_fwd_flops_per_token(), 4.0 * 768 * 3072);
  EXPECT_DOUBLE_EQ(c.expert_fwdbwd_flops_per_token(), 12.0 * 768 * 3072);
  EXPECT_DOUBLE_EQ(c.token_bytes(), 2.0 * 768);
  EXPECT_DOUBLE_EQ(c.expert_grad_bytes(),
                   static_cast<double>(c.expert_params()) * 2.0);
  // Mixed-precision Adam model states: 14 B/param.
  EXPECT_DOUBLE_EQ(c.expert_state_bytes(),
                   static_cast<double>(c.expert_params()) * 14.0);
}

TEST(ModelConfigTest, ValidationCatchesBadConfigs) {
  ModelConfig c = BertMoES();
  c.num_moe_layers = c.num_layers + 1;
  EXPECT_FALSE(c.Validate().ok());
  c = BertMoES();
  c.top_k = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = BertMoES();
  c.num_experts = 0;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ModelConfigTest, LookupByName) {
  EXPECT_EQ((*ModelByName("gpt-moe-l")).name, "GPT-MoE-L");
  EXPECT_EQ((*ModelByName("SWIN-MOE-S")).name, "Swin-MoE-S");
  EXPECT_FALSE(ModelByName("nonexistent").ok());
}

TEST(TransformerTest, NonMoECostsPositiveAndScale) {
  TopologyOptions topt;
  topt.num_nodes = 4;
  topt.gpus_per_node = 8;
  const Topology topo = *Topology::Create(topt);
  const HardwareProfile profile(&topo, GpuSpec{});

  const double small = NonMoEComputeSeconds(GptMoES(), profile);
  const double large = NonMoEComputeSeconds(GptMoEL(), profile);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);  // larger model, more non-MoE FLOPs
}

}  // namespace
}  // namespace flexmoe
