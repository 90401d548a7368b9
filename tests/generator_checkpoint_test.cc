// Checkpoint/restore of the trace generator (ROADMAP item): a run paused
// at step N and resumed from a checkpoint must produce byte-identical
// traces to an uninterrupted run, for every scenario in the catalog —
// the long-clock regimes (diurnal, finetune-shift) are exactly the ones
// elastic restarts need to replay exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "gate/trace_generator.h"
#include "gate/trace_source.h"

namespace flexmoe {
namespace {

TraceGeneratorOptions SmallOptions(const std::string& scenario) {
  TraceGeneratorOptions o;
  o.num_experts = 16;
  o.num_moe_layers = 3;
  o.num_gpus = 8;
  o.tokens_per_gpu = 512;
  o.seed = 77;
  o.balance_coef = 0.001;
  o.scenario.name = scenario;
  // Scenario clocks scaled into the test's horizon so the interesting
  // dynamics (shift, waves, tenant switches) straddle the pause point.
  o.scenario.shift_step = 12;
  o.scenario.diurnal_period = 10.0;
  o.scenario.tenant_block_steps = 4;
  return o;
}

bool AssignmentsEqual(const std::vector<Assignment>& a,
                      const std::vector<Assignment>& b) {
  if (a.size() != b.size()) return false;
  for (size_t l = 0; l < a.size(); ++l) {
    if (a[l].num_experts() != b[l].num_experts() ||
        a[l].num_gpus() != b[l].num_gpus()) {
      return false;
    }
    for (int e = 0; e < a[l].num_experts(); ++e) {
      for (int g = 0; g < a[l].num_gpus(); ++g) {
        if (a[l].at(e, g) != b[l].at(e, g)) return false;
      }
    }
  }
  return true;
}

class CheckpointTest : public testing::TestWithParam<const char*> {};

TEST_P(CheckpointTest, PauseAndResumeIsByteIdentical) {
  const std::string scenario = GetParam();
  constexpr int kPause = 9;
  constexpr int kTail = 15;

  // The uninterrupted reference run.
  auto uninterrupted = *TraceGenerator::Create(SmallOptions(scenario));
  for (int s = 0; s < kPause; ++s) uninterrupted.Step();

  // The paused run: advance to the pause point, checkpoint, then restore
  // into a FRESH generator (fresh Init draws and all) and continue there.
  auto paused = *TraceGenerator::Create(SmallOptions(scenario));
  for (int s = 0; s < kPause; ++s) paused.Step();
  const std::string checkpoint = paused.SaveCheckpoint();

  auto resumed = *TraceGenerator::Create(SmallOptions(scenario));
  ASSERT_TRUE(resumed.RestoreCheckpoint(checkpoint).ok());
  EXPECT_EQ(resumed.step_index(), kPause);

  uint64_t h_ref = kTraceHashSeed, h_resumed = kTraceHashSeed;
  for (int s = 0; s < kTail; ++s) {
    const std::vector<Assignment> ref_step = uninterrupted.Step();
    const std::vector<Assignment> res_step = resumed.Step();
    ASSERT_TRUE(AssignmentsEqual(ref_step, res_step))
        << scenario << " diverged at resumed step " << kPause + s;
    h_ref = HashStep(ref_step, h_ref);
    h_resumed = HashStep(res_step, h_resumed);
  }
  EXPECT_EQ(h_ref, h_resumed) << scenario;
}

TEST_P(CheckpointTest, CheckpointSurvivesRepeatedRoundTrips) {
  const std::string scenario = GetParam();
  auto reference = *TraceGenerator::Create(SmallOptions(scenario));
  auto hopper = *TraceGenerator::Create(SmallOptions(scenario));
  // Checkpoint-and-restore every few steps; the hopping run must track
  // the straight run exactly (restores compose).
  uint64_t h_ref = kTraceHashSeed, h_hop = kTraceHashSeed;
  for (int round = 0; round < 4; ++round) {
    const std::string checkpoint = hopper.SaveCheckpoint();
    auto next = *TraceGenerator::Create(SmallOptions(scenario));
    ASSERT_TRUE(next.RestoreCheckpoint(checkpoint).ok());
    hopper = std::move(next);
    for (int s = 0; s < 5; ++s) {
      h_ref = HashStep(reference.Step(), h_ref);
      h_hop = HashStep(hopper.Step(), h_hop);
    }
  }
  EXPECT_EQ(h_ref, h_hop) << scenario;
}

INSTANTIATE_TEST_SUITE_P(Catalog, CheckpointTest,
                         testing::Values("pretrain-steady", "finetune-shift",
                                         "bursty", "diurnal", "multi-tenant"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(CheckpointValidationTest, RejectsMismatchedGenerators) {
  auto gen = *TraceGenerator::Create(SmallOptions("diurnal"));
  gen.Step();
  const std::string checkpoint = gen.SaveCheckpoint();

  // Different scenario.
  auto other_scenario = *TraceGenerator::Create(SmallOptions("bursty"));
  EXPECT_FALSE(other_scenario.RestoreCheckpoint(checkpoint).ok());

  // Different shape.
  TraceGeneratorOptions wide = SmallOptions("diurnal");
  wide.num_experts = 32;
  auto other_shape = *TraceGenerator::Create(wide);
  EXPECT_FALSE(other_shape.RestoreCheckpoint(checkpoint).ok());

  // Different seed.
  TraceGeneratorOptions reseeded = SmallOptions("diurnal");
  reseeded.seed = 78;
  auto other_seed = *TraceGenerator::Create(reseeded);
  EXPECT_FALSE(other_seed.RestoreCheckpoint(checkpoint).ok());
}

TEST(CheckpointValidationTest, RejectsCorruptPayloads) {
  auto gen = *TraceGenerator::Create(SmallOptions("multi-tenant"));
  gen.Step();
  const std::string checkpoint = gen.SaveCheckpoint();

  auto victim = *TraceGenerator::Create(SmallOptions("multi-tenant"));
  EXPECT_FALSE(victim.RestoreCheckpoint("").ok());
  EXPECT_FALSE(victim.RestoreCheckpoint("garbage").ok());
  EXPECT_FALSE(
      victim.RestoreCheckpoint(checkpoint.substr(0, checkpoint.size() / 2))
          .ok());
  EXPECT_FALSE(victim.RestoreCheckpoint(checkpoint + "x").ok());

  // A scenario-name length with the high bit set must fail cleanly, not
  // reach the string constructor as a negative/huge size. The length
  // field sits right after magic+version and the 3 shape ints + seed.
  std::string hostile = checkpoint;
  const size_t name_len_offset = 4 + 4 + 3 * 4 + 8;
  ASSERT_GT(hostile.size(), name_len_offset + 8);
  hostile[name_len_offset + 7] = static_cast<char>(0x80);
  EXPECT_FALSE(victim.RestoreCheckpoint(hostile).ok());
}

TEST(CheckpointValidationTest, RejectsVersionOneCheckpoints) {
  // Version 1 was cut from the single-stream layout that sampled every
  // layer on the evolution stream; continuing it on per-step substreams
  // would make a stream no generator ever produced.
  auto gen = *TraceGenerator::Create(SmallOptions("pretrain-steady"));
  gen.Step();
  std::string v1 = gen.SaveCheckpoint();
  const uint32_t version = 1;
  std::memcpy(&v1[4], &version, sizeof(version));  // after the magic

  auto victim = *TraceGenerator::Create(SmallOptions("pretrain-steady"));
  const Status status = victim.RestoreCheckpoint(v1);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

}  // namespace
}  // namespace flexmoe
