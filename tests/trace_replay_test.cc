// TraceSource and the replay contract: a recorded trace replayed into a
// system must be indistinguishable from the live generator run — the
// metrics of all four systems must be byte-identical between the two.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "gate/trace_source.h"
#include "harness/experiment.h"
#include "util/rng.h"

namespace flexmoe {
namespace {

ExperimentOptions SmallExperiment(const std::string& system) {
  ExperimentOptions o;
  o.system = system;
  o.model = GptMoES();
  o.model.num_moe_layers = 2;
  o.model.tokens_per_gpu = 2048;
  o.num_gpus = 8;
  o.measure_steps = 30;
  o.warmup_steps = 5;
  o.seed = 21;
  return o;
}

TraceGeneratorOptions SmallTrace() {
  TraceGeneratorOptions o;
  o.num_experts = 16;
  o.num_moe_layers = 2;
  o.num_gpus = 8;
  o.tokens_per_gpu = 1024;
  o.seed = 9;
  return o;
}

TEST(TraceSourceTest, GeneratorSourceMatchesBareGenerator) {
  auto bare = *TraceGenerator::Create(SmallTrace());
  GeneratorTraceSource source(*TraceGenerator::Create(SmallTrace()));
  EXPECT_EQ(source.StepsRemaining(), -1);
  uint64_t h_bare = kTraceHashSeed, h_src = kTraceHashSeed;
  for (int s = 0; s < 5; ++s) {
    h_bare = HashStep(bare.Step(), h_bare);
    h_src = HashStep(source.NextStep(), h_src);
  }
  EXPECT_EQ(h_bare, h_src);
}

TEST(TraceSourceTest, RecordingThenReplayYieldsIdenticalStream) {
  auto gen = *TraceGenerator::Create(SmallTrace());
  RoutingTrace sink;
  RecordingTraceSource recorder(
      std::unique_ptr<TraceSource>(
          new GeneratorTraceSource(*TraceGenerator::Create(SmallTrace()))),
      &sink);

  uint64_t h_live = kTraceHashSeed, h_rec = kTraceHashSeed;
  for (int s = 0; s < 6; ++s) {
    h_live = HashStep(gen.Step(), h_live);
    h_rec = HashStep(recorder.NextStep(), h_rec);
  }
  EXPECT_EQ(h_live, h_rec);
  ASSERT_EQ(sink.num_steps(), 6);

  ReplayTraceSource replay(std::move(sink));
  EXPECT_EQ(replay.StepsRemaining(), 6);
  uint64_t h_replay = kTraceHashSeed;
  for (int s = 0; s < 6; ++s) {
    h_replay = HashStep(replay.NextStep(), h_replay);
  }
  EXPECT_EQ(h_replay, h_live);
  EXPECT_EQ(replay.StepsRemaining(), 0);
}

TEST(BuildTraceSourceTest, RejectsShortOrMismatchedTraces) {
  // Record a 30-step trace of the small experiment's shape.
  ExperimentOptions rec = SmallExperiment("flexmoe");
  rec.workload.record_path = testing::TempDir() + "/short.trace";
  ASSERT_TRUE(RunExperiment(rec).ok());

  // Needing more steps than the trace holds is an error...
  ExperimentOptions replay = SmallExperiment("flexmoe");
  replay.workload.replay_path = rec.workload.record_path;
  replay.measure_steps = 31;
  EXPECT_FALSE(BuildTraceSource(replay).ok());

  // ...as is a shape mismatch (different GPU count).
  replay = SmallExperiment("flexmoe");
  replay.workload.replay_path = rec.workload.record_path;
  replay.num_gpus = 16;
  EXPECT_FALSE(BuildTraceSource(replay).ok());

  // A missing file surfaces the Load error.
  replay = SmallExperiment("flexmoe");
  replay.workload.replay_path = "/nonexistent/trace.bin";
  EXPECT_FALSE(BuildTraceSource(replay).ok());

  // The exact-fit replay is fine.
  replay = SmallExperiment("flexmoe");
  replay.workload.replay_path = rec.workload.record_path;
  auto source = BuildTraceSource(replay);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ((*source)->StepsRemaining(), 30);
}

// The satellite's core claim: record once, replay into every system, and
// each system's metrics are byte-identical to its live-generator run.
TEST(ReplayDeterminismTest, AllSystemsByteIdenticalUnderReplay) {
  const std::string trace_path = testing::TempDir() + "/replay_all.trace";
  {
    ExperimentOptions rec = SmallExperiment("flexmoe");
    rec.workload.record_path = trace_path;
    ASSERT_TRUE(RunExperiment(rec).ok());
  }
  for (const std::string system :
       {"flexmoe", "deepspeed", "fastermoe", "swipe"}) {
    const auto live = RunExperiment(SmallExperiment(system));
    ASSERT_TRUE(live.ok()) << system;

    ExperimentOptions replay_opts = SmallExperiment(system);
    replay_opts.workload.replay_path = trace_path;
    const auto replayed = RunExperiment(replay_opts);
    ASSERT_TRUE(replayed.ok()) << system;

    // The streams were identical...
    EXPECT_EQ(live->trace_hash, replayed->trace_hash) << system;
    // ...so every metric must match to the last bit (== on doubles).
    EXPECT_EQ(live->mean_step_seconds, replayed->mean_step_seconds) << system;
    EXPECT_EQ(live->throughput_tokens_per_sec,
              replayed->throughput_tokens_per_sec)
        << system;
    EXPECT_EQ(live->mean_balance_ratio, replayed->mean_balance_ratio)
        << system;
    EXPECT_EQ(live->mean_token_efficiency, replayed->mean_token_efficiency)
        << system;
    EXPECT_EQ(live->mean_expert_efficiency, replayed->mean_expert_efficiency)
        << system;
    EXPECT_EQ(live->mean_gpu_utilization, replayed->mean_gpu_utilization)
        << system;
    EXPECT_EQ(live->hours_to_target, replayed->hours_to_target) << system;
    EXPECT_EQ(live->stats.TotalOpsApplied(), replayed->stats.TotalOpsApplied())
        << system;
    // Per-step timelines too, not just aggregates.
    ASSERT_EQ(live->stats.num_steps(), replayed->stats.num_steps()) << system;
    for (int64_t s = 0; s < live->stats.num_steps(); ++s) {
      ASSERT_EQ(live->stats.steps()[static_cast<size_t>(s)].step_seconds,
                replayed->stats.steps()[static_cast<size_t>(s)].step_seconds)
          << system << " step " << s;
    }
    EXPECT_EQ(replayed->workload, "replay:" + trace_path) << system;
    EXPECT_EQ(live->workload, "pretrain-steady") << system;
  }
}

// Replaying a bursty recording reproduces a bursty run: scenarios survive
// the record/replay round trip, not just the default dynamics.
TEST(ReplayDeterminismTest, ScenarioRecordingsReplayIdentically) {
  const std::string trace_path = testing::TempDir() + "/replay_bursty.trace";
  ExperimentOptions rec = SmallExperiment("flexmoe");
  rec.workload.scenario.name = "bursty";
  rec.workload.record_path = trace_path;
  const auto live = RunExperiment(rec);
  ASSERT_TRUE(live.ok());

  ExperimentOptions replay_opts = SmallExperiment("flexmoe");
  replay_opts.workload.replay_path = trace_path;
  const auto replayed = RunExperiment(replay_opts);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(live->trace_hash, replayed->trace_hash);
  EXPECT_EQ(live->mean_step_seconds, replayed->mean_step_seconds);
  EXPECT_EQ(live->mean_balance_ratio, replayed->mean_balance_ratio);
}

// HashWord folds each word's zero high bytes into one multiply; it, and
// HashStep built on it, must equal the plain byte-wise FNV-1a loop.
uint64_t HashWordByteWise(uint64_t v, uint64_t h) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t HashStepByteWise(const std::vector<Assignment>& step, uint64_t h) {
  for (const Assignment& a : step) {
    h = HashWordByteWise(static_cast<uint64_t>(a.num_experts()), h);
    h = HashWordByteWise(static_cast<uint64_t>(a.num_gpus()), h);
    for (int e = 0; e < a.num_experts(); ++e) {
      for (int g = 0; g < a.num_gpus(); ++g) {
        h = HashWordByteWise(static_cast<uint64_t>(a.at(e, g)), h);
      }
    }
  }
  return h;
}

const int64_t kEdgeWords[] = {0,
                              1,
                              255,
                              256,
                              int64_t{1} << 56,
                              -1,
                              std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max()};

/// A random word: an edge value, a full-width word, or a word of a random
/// byte width.
uint64_t RandomWord(Rng* rng) {
  switch (rng->UniformInt(3)) {
    case 0:
      return static_cast<uint64_t>(kEdgeWords[rng->UniformInt(8)]);
    case 1:
      return rng->Next();
    default:
      return rng->Next() >> (8 * rng->UniformInt(8));
  }
}

TEST(HashStepTest, HashWordMatchesByteWiseFnv1a) {
  Rng rng(17);
  for (const int64_t word : kEdgeWords) {
    for (const uint64_t h : {kTraceHashSeed, uint64_t{0}, rng.Next()}) {
      EXPECT_EQ(HashWord(static_cast<uint64_t>(word), h),
                HashWordByteWise(static_cast<uint64_t>(word), h))
          << "word " << word;
    }
  }
  uint64_t h = kTraceHashSeed;
  uint64_t want = kTraceHashSeed;
  for (int i = 0; i < 100000; ++i) {
    const uint64_t word = RandomWord(&rng);
    h = HashWord(word, h);
    want = HashWordByteWise(word, want);
    ASSERT_EQ(h, want) << "word " << word << " at " << i;
  }
}

TEST(HashStepTest, MatchesByteWiseFnv1a) {
  EXPECT_EQ(HashStep({}, kTraceHashSeed),
            HashStepByteWise({}, kTraceHashSeed));
  Rng rng(19);
  for (const auto& [experts, gpus] :
       std::vector<std::pair<int, int>>{{1, 1}, {3, 5}, {16, 8}, {64, 16}}) {
    std::vector<Assignment> step;
    for (int layer = 0; layer < 3; ++layer) {
      // Counts are non-negative, so the sign bit is masked off; the
      // HashWord test above covers -1 and INT64_MIN.
      Assignment a(experts, gpus);
      for (int e = 0; e < experts; ++e) {
        for (int g = 0; g < gpus; ++g) {
          a.set(e, g, static_cast<int64_t>(RandomWord(&rng) & ~(1ULL << 63)));
        }
      }
      step.push_back(std::move(a));
    }
    step.emplace_back(experts, gpus);  // an all-zero layer
    uint64_t h = kTraceHashSeed;
    uint64_t want = kTraceHashSeed;
    for (int round = 0; round < 3; ++round) {
      h = HashStep(step, h);
      want = HashStepByteWise(step, want);
      ASSERT_EQ(h, want) << experts << "x" << gpus << " round " << round;
    }
  }
}

}  // namespace
}  // namespace flexmoe
