// TraceSource and the replay contract: a recorded trace replayed into a
// system must be indistinguishable from the live generator run — the
// metrics of all four systems must be byte-identical between the two.
// Also the pipelined GeneratorTraceSource: its helper threads must hand
// out the bare generator's exact stream, respect its horizon, start more
// helpers for a starved caller, and never hang on teardown.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gate/logit_process.h"
#include "gate/trace_source.h"
#include "harness/experiment.h"
#include "test_env.h"
#include "util/rng.h"
#include "util/thread_budget.h"

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

/// Hash chain of `pulls` steps of a bare generator.
uint64_t BareChain(const TraceGeneratorOptions& t, int pulls) {
  auto gen = *TraceGenerator::Create(t);
  uint64_t h = kTraceHashSeed;
  for (int s = 0; s < pulls; ++s) h = HashStep(gen.Step(), h);
  return h;
}

/// A helper starts at the first pull when the process has a hardware
/// thread free, which a single-threaded test process has unless the
/// machine has one thread only.
bool HelperCanEngage() { return HardwareThreads() > 1; }

/// Holds every hardware thread of the budget for its scope, so no helper
/// can start: each pull makes its step inline.
class ExhaustedBudget {
 public:
  ExhaustedBudget() { ClaimThreads(HardwareThreads()); }
  ~ExhaustedBudget() { ReleaseThreads(HardwareThreads()); }
  ExhaustedBudget(const ExhaustedBudget&) = delete;
  ExhaustedBudget& operator=(const ExhaustedBudget&) = delete;
};

TEST(TraceSourceTest, GeneratorSourceMatchesBareGenerator) {
  constexpr int kPulls = 60;
  for (const bool exhausted : {false, true}) {
    for (const std::string& scenario : ScenarioCatalog()) {
      TraceGeneratorOptions t = SmallTrace();
      t.scenario.name = scenario;
      std::unique_ptr<ExhaustedBudget> budget;
      if (exhausted) budget = std::make_unique<ExhaustedBudget>();
      GeneratorTraceSource source(*TraceGenerator::Create(t));
      EXPECT_EQ(source.StepsRemaining(), -1);
      uint64_t h = kTraceHashSeed;
      for (int s = 0; s < kPulls; ++s) {
        // The first pull makes its step inline and starts a helper. Each
        // later pull waits until a helper has made its step, so every
        // step after the first comes from a helper.
        while (s > 0 && !exhausted && source.helpers_started() > 0 &&
               source.helper_steps() < s) {
          std::this_thread::yield();
        }
        h = HashStep(source.NextStep(), h);
      }
      EXPECT_EQ(h, BareChain(t, kPulls)) << scenario;
      if (exhausted) {
        EXPECT_EQ(source.helpers_started(), 0) << scenario;
        EXPECT_EQ(source.helper_steps(), 0) << scenario;
      } else if (HelperCanEngage()) {
        EXPECT_EQ(source.helpers_started(), 1) << scenario;
        EXPECT_GE(source.helper_steps(), kPulls - 1) << scenario;
      }
    }
  }
}

TEST(TraceSourceTest, HorizonBoundsTheHelpersAndLaterPullsRunInline) {
  constexpr int kPulls = 50;
  const uint64_t want = BareChain(SmallTrace(), kPulls);
  for (const int64_t horizon : {int64_t{-1}, int64_t{0}, int64_t{1},
                                int64_t{20}, int64_t{kPulls}}) {
    GeneratorTraceSource source(*TraceGenerator::Create(SmallTrace()),
                                horizon);
    uint64_t h = kTraceHashSeed;
    int64_t made_by_horizon = -1;
    for (int s = 0; s < kPulls; ++s) {
      if (horizon >= 0 && s == horizon) {
        // Every step before the horizon has been pulled, so every helper
        // step is finished, and no helper makes one past it.
        made_by_horizon = source.helper_steps();
        EXPECT_LE(made_by_horizon, horizon) << "horizon " << horizon;
      }
      h = HashStep(source.NextStep(), h);
    }
    EXPECT_EQ(h, want) << "horizon " << horizon;
    if (horizon == 0) {
      EXPECT_EQ(source.helpers_started(), 0);
      EXPECT_EQ(source.helper_steps(), 0);
    } else if (horizon > 0) {
      // The pulls past the horizon ran inline.
      if (made_by_horizon < 0) made_by_horizon = source.helper_steps();
      EXPECT_EQ(source.helper_steps(), made_by_horizon)
          << "horizon " << horizon;
    } else {
      // Unbounded: n helpers run at most n + 1 steps ahead of the pulls.
      EXPECT_LE(source.helper_steps(),
                kPulls + source.helpers_started() + 1);
    }
  }
}

TraceGeneratorOptions SlowTrace() {
  TraceGeneratorOptions o = SmallTrace();
  o.num_experts = 64;
  o.num_moe_layers = 4;
  o.num_gpus = 32;
  o.tokens_per_gpu = 8192;
  return o;
}

TEST(TraceSourceTest, StarvedConsumerEngagesSeveralHelpers) {
  if (HardwareThreads() < 3) {
    GTEST_SKIP() << "needs two hardware threads besides the caller";
  }
  // The caller does no work between pulls, so each pull finds its step
  // unfinished while fewer helpers run than the free cores allow, and
  // starts one more.
  constexpr int kPulls = 24;
  GeneratorTraceSource source(*TraceGenerator::Create(SlowTrace()));
  uint64_t h = kTraceHashSeed;
  for (int s = 0; s < kPulls; ++s) h = HashStep(source.NextStep(), h);
  EXPECT_EQ(h, BareChain(SlowTrace(), kPulls));
  EXPECT_GT(source.helpers_started(), 1);
  EXPECT_LE(source.helpers_started(), HardwareThreads() - 1);
  EXPECT_GT(source.helper_steps(), 0);
}

TEST(TraceSourceTest, DestructionBeforeFirstPullDoesNotHang) {
  GeneratorTraceSource source(*TraceGenerator::Create(SmallTrace()));
  EXPECT_EQ(source.helpers_started(), 0);
  EXPECT_EQ(source.helper_steps(), 0);
}

TEST(TraceSourceTest, DestructionWithFullQueueDoesNotHang) {
  auto source = std::make_unique<GeneratorTraceSource>(
      *TraceGenerator::Create(SmallTrace()));
  source->NextStep();
  if (source->helpers_started() > 0) {
    // The first step was made inline; the one helper it started fills
    // the depth (helpers + 1) and then waits for room.
    while (source->helper_steps() < source->helpers_started() + 1) {
      std::this_thread::yield();
    }
  }
  source.reset();
}

TEST(TraceSourceTest, DestructionWithStepInFlightDoesNotHang) {
  // Steps slow enough that the helper is still generating the next one
  // when the source is destroyed right after the first pull.
  for (int round = 0; round < 3; ++round) {
    auto source = std::make_unique<GeneratorTraceSource>(
        *TraceGenerator::Create(SlowTrace()));
    source->NextStep();
    source.reset();
  }
}

TEST(TraceSourceTest, DestructionWithSeveralHelpersSamplingDoesNotHang) {
  // Starved pulls start several helpers; the source is destroyed while
  // they sample the steps ahead.
  for (int round = 0; round < 3; ++round) {
    auto source = std::make_unique<GeneratorTraceSource>(
        *TraceGenerator::Create(SlowTrace()));
    for (int s = 0; s < 3; ++s) source->NextStep();
    source.reset();
  }
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
  rec.workload.record_path = TempPath("short.trace");
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
  const std::string trace_path = TempPath("replay_all.trace");
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
  const std::string trace_path = TempPath("replay_bursty.trace");
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
