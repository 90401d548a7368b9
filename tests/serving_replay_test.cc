// The serving replay contract: a serving run recorded with record_path and
// replayed with replay_path (same scenario options, so the arrival stream
// regenerates identically) must produce byte-identical serving metrics for
// every system — the serving twin of trace_replay_test. Covered for BOTH
// the fixed-size stream and the heavy-tailed size mix with shedding (the
// sized request stream itself must regenerate byte-identically).

#include <gtest/gtest.h>

#include <string>

#include "harness/experiment.h"
#include "harness/golden.h"
#include "test_env.h"

namespace flexmoe {
namespace {

ExperimentOptions SmallServing(const std::string& system, bool sized) {
  ExperimentOptions o = sized ? ServingSizeMixCell("bursty", system)
                              : ServingGoldenCell("bursty", system);
  o.measure_steps = 30;
  o.warmup_steps = 5;
  return o;
}

class ServingReplayTest : public testing::TestWithParam<bool> {};

TEST_P(ServingReplayTest, AllSystemsByteIdenticalUnderReplay) {
  const bool sized = GetParam();
  const std::string trace_path = TempPath(
      sized ? "serving_replay_sized.trace" : "serving_replay.trace");
  {
    ExperimentOptions rec = SmallServing("flexmoe", sized);
    rec.workload.record_path = trace_path;
    ASSERT_TRUE(RunExperiment(rec).ok());
  }
  for (const std::string system :
       {"flexmoe", "deepspeed", "fastermoe", "swipe"}) {
    const auto live = RunExperiment(SmallServing(system, sized));
    ASSERT_TRUE(live.ok()) << system;

    ExperimentOptions replay_opts = SmallServing(system, sized);
    replay_opts.workload.replay_path = trace_path;
    const auto replayed = RunExperiment(replay_opts);
    ASSERT_TRUE(replayed.ok()) << system;

    // Identical token stream...
    EXPECT_EQ(live->trace_hash, replayed->trace_hash) << system;
    // ...and byte-identical serving outcomes (== on doubles).
    const ServingReport& a = live->serve;
    const ServingReport& b = replayed->serve;
    EXPECT_EQ(a.requests_arrived, b.requests_arrived) << system;
    EXPECT_EQ(a.requests_completed, b.requests_completed) << system;
    EXPECT_EQ(a.requests_shed, b.requests_shed) << system;
    EXPECT_EQ(a.requests_queued_past_deadline,
              b.requests_queued_past_deadline)
        << system;
    EXPECT_EQ(a.tokens_arrived, b.tokens_arrived) << system;
    EXPECT_EQ(a.tokens_completed, b.tokens_completed) << system;
    EXPECT_EQ(a.tokens_shed, b.tokens_shed) << system;
    EXPECT_EQ(a.tokens_completed_within_slo, b.tokens_completed_within_slo)
        << system;
    EXPECT_EQ(a.batches, b.batches) << system;
    EXPECT_EQ(a.failed_batches, b.failed_batches) << system;
    EXPECT_EQ(a.chunked_admissions, b.chunked_admissions) << system;
    EXPECT_EQ(a.tokens_recirculated, b.tokens_recirculated) << system;
    EXPECT_EQ(a.slo_violations, b.slo_violations) << system;
    EXPECT_EQ(a.slo_attainment, b.slo_attainment) << system;
    EXPECT_EQ(a.mean_latency_seconds, b.mean_latency_seconds) << system;
    EXPECT_EQ(a.p50_latency_seconds, b.p50_latency_seconds) << system;
    EXPECT_EQ(a.p99_latency_seconds, b.p99_latency_seconds) << system;
    EXPECT_EQ(a.max_latency_seconds, b.max_latency_seconds) << system;
    EXPECT_EQ(a.mean_batch_seconds, b.mean_batch_seconds) << system;
    EXPECT_EQ(a.span_seconds, b.span_seconds) << system;
    EXPECT_EQ(a.served_tokens_per_sec, b.served_tokens_per_sec) << system;
    EXPECT_EQ(a.goodput_tokens_per_sec, b.goodput_tokens_per_sec) << system;
    // Per-batch timelines too, not just aggregates.
    ASSERT_EQ(live->stats.num_steps(), replayed->stats.num_steps()) << system;
    for (int64_t s = 0; s < live->stats.num_steps(); ++s) {
      ASSERT_EQ(live->stats.steps()[static_cast<size_t>(s)].step_seconds,
                replayed->stats.steps()[static_cast<size_t>(s)].step_seconds)
          << system << " batch " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FixedAndSized, ServingReplayTest,
                         testing::Values(false, true),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "sized_shedding"
                                             : "fixed_sizes";
                         });

TEST(ServingDeterminismTest, ServingRunsAreDeterministic) {
  // Two identical live serving runs are byte-identical — the foundation
  // the golden digests stand on — for both size mixes.
  for (const bool sized : {false, true}) {
    const auto a = RunExperiment(SmallServing("flexmoe", sized));
    const auto b = RunExperiment(SmallServing("flexmoe", sized));
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->trace_hash, b->trace_hash);
    EXPECT_EQ(a->serve.p99_latency_seconds, b->serve.p99_latency_seconds);
    EXPECT_EQ(a->serve.slo_attainment, b->serve.slo_attainment);
    EXPECT_EQ(a->serve.requests_completed, b->serve.requests_completed);
    EXPECT_EQ(a->serve.requests_shed, b->serve.requests_shed);
    EXPECT_EQ(a->serve.goodput_tokens_per_sec,
              b->serve.goodput_tokens_per_sec);
  }
}

}  // namespace
}  // namespace flexmoe
