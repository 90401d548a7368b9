// Integration tests of the experiment harness: every system runs end to
// end, reports are sane, and the paper's headline orderings hold on a
// shared workload.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <map>

#include "harness/experiment.h"
#include "harness/golden.h"
#include "harness/reporters.h"
#include "util/string_util.h"

namespace flexmoe {
namespace {

ExperimentOptions SmallExperiment(const std::string& system) {
  ExperimentOptions o;
  o.system = system;
  o.model = GptMoES();
  o.model.num_moe_layers = 2;     // keep test runtime modest
  o.model.tokens_per_gpu = 2048;
  o.num_gpus = 8;
  o.measure_steps = 40;
  o.warmup_steps = 10;
  o.seed = 5;
  return o;
}

TEST(ExperimentOptionsTest, Validation) {
  EXPECT_TRUE(SmallExperiment("flexmoe").Validate().ok());
  ExperimentOptions o = SmallExperiment("nosuch");
  EXPECT_FALSE(o.Validate().ok());
  o = SmallExperiment("flexmoe");
  o.num_gpus = 12;
  EXPECT_FALSE(o.Validate().ok());
  o = SmallExperiment("flexmoe");
  o.warmup_steps = o.measure_steps;
  EXPECT_FALSE(o.Validate().ok());
}

// A non-finite serving input is a validation error before the run, not an
// abort inside the arrival process: NaN passes every `<= 0` check.
TEST(ExperimentOptionsTest, NonFiniteServingInputsAreInvalid) {
  for (const double bad : {std::nan(""), HUGE_VAL}) {
    ExperimentOptions o = ServingGoldenCell("bursty", "flexmoe");
    o.serving.arrival_rate_rps = bad;
    const auto report = RunExperiment(o);
    ASSERT_FALSE(report.ok()) << bad;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// Chunk depth is bounded: an absurd depth is a validation error, not an
// allocation failure or an unbounded run inside the executor.
TEST(ExperimentOptionsTest, PipelineChunksRange) {
  ExperimentOptions o = SmallExperiment("flexmoe");
  for (const int chunks : {0, 1, kMaxPipelineChunks}) {
    o.pipeline_chunks = chunks;
    EXPECT_TRUE(o.Validate().ok()) << chunks;
  }
  for (const int chunks : {-1, kMaxPipelineChunks + 1, INT_MAX}) {
    o.pipeline_chunks = chunks;
    EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument) << chunks;
  }
  EXPECT_EQ(kMaxPipelineChunks, 64);
}

TEST(ExperimentTest, AllSystemsRun) {
  for (const std::string system :
       {"flexmoe", "deepspeed", "fastermoe", "swipe"}) {
    const auto report = RunExperiment(SmallExperiment(system));
    ASSERT_TRUE(report.ok()) << system;
    EXPECT_GT(report->mean_step_seconds, 0.0) << system;
    EXPECT_GT(report->throughput_tokens_per_sec, 0.0) << system;
    EXPECT_GT(report->steps_to_target, 0.0) << system;
    EXPECT_GT(report->hours_to_target, 0.0) << system;
    EXPECT_GE(report->mean_balance_ratio, 1.0) << system;
    EXPECT_EQ(report->num_gpus, 8) << system;
    EXPECT_FALSE(ReportLine(*report).empty());
  }
}

TEST(ExperimentTest, LargeEPPresetRunsEndToEnd) {
  // Reduced-scale smoke of the large-EP preset (one expert per GPU,
  // slots = 2, hierarchical Eq. 8 and so the cross-link expand order): same
  // configuration the nightly runs at G = 512, sized for tier-1. The
  // preset's knobs must survive the full engine path, not just the
  // planner microbenchmarks.
  ExperimentOptions o = LargeEPOptions(16);
  o.measure_steps = 10;
  o.warmup_steps = 2;
  const auto report = RunExperiment(o);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->mean_step_seconds, 0.0);
  EXPECT_GT(report->throughput_tokens_per_sec, 0.0);
  EXPECT_GE(report->mean_balance_ratio, 1.0);
  EXPECT_EQ(report->num_gpus, 16);
}

// The full G = E = 512 large-EP preset through the discrete-event
// engine: auto-K must match or beat both static pins the nightly tracks
// (serial and K = 4) on simulated mean step time. About 35 s, so it is
// disabled in tier-1; the nightly job runs it with
// --gtest_also_run_disabled_tests and keeps the recorded mean steps
// (mean_step_ms_k0 is auto-K).
TEST(ExperimentTest, DISABLED_LargeEPAutoKMatchesStaticPinsG512) {
  std::map<int, double> mean_step;  // by pipeline_chunks; 0 = auto-K
  for (const int k : {1, 4, 0}) {
    ExperimentOptions o = LargeEPOptions(512);
    o.pipeline_chunks = k;
    const auto report = RunExperiment(o);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    mean_step[k] = report->mean_step_seconds;
    RecordProperty(StrFormat("mean_step_ms_k%d", k),
                   StrFormat("%.6f", 1e3 * mean_step[k]));
  }
  EXPECT_LE(mean_step[0], std::min(mean_step[1], mean_step[4]));
}

TEST(ExperimentTest, DeterministicReports) {
  const auto r1 = RunExperiment(SmallExperiment("flexmoe"));
  const auto r2 = RunExperiment(SmallExperiment("flexmoe"));
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_DOUBLE_EQ(r1->mean_step_seconds, r2->mean_step_seconds);
  EXPECT_DOUBLE_EQ(r1->hours_to_target, r2->hours_to_target);
}

TEST(ExperimentTest, FlexMoEBalancesBetterThanUncappedBaselines) {
  const auto flex = RunExperiment(SmallExperiment("flexmoe"));
  ExperimentOptions ep = SmallExperiment("deepspeed");
  ep.capacity_factor = 0.0;  // uncapped: raw imbalance visible
  const auto ds = RunExperiment(ep);
  ASSERT_TRUE(flex.ok() && ds.ok());
  EXPECT_LT(flex->mean_balance_ratio, ds->mean_balance_ratio);
}

TEST(ExperimentTest, HeadlineOrderingTimeToQuality) {
  // The paper's Figure 5 shape: FlexMoE < FasterMoE < DeepSpeed in hours
  // to the common quality target.
  const auto flex = RunExperiment(SmallExperiment("flexmoe"));
  const auto faster = RunExperiment(SmallExperiment("fastermoe"));
  const auto ds = RunExperiment(SmallExperiment("deepspeed"));
  ASSERT_TRUE(flex.ok() && faster.ok() && ds.ok());
  EXPECT_LT(flex->hours_to_target, faster->hours_to_target);
  EXPECT_LT(flex->hours_to_target, ds->hours_to_target);
}

TEST(ExperimentTest, TokenEfficiencySemantics) {
  const auto flex = RunExperiment(SmallExperiment("flexmoe"));
  const auto ds = RunExperiment(SmallExperiment("deepspeed"));
  const auto swipe = RunExperiment(SmallExperiment("swipe"));
  ASSERT_TRUE(flex.ok() && ds.ok() && swipe.ok());
  EXPECT_DOUBLE_EQ(flex->mean_token_efficiency, 1.0);
  EXPECT_LT(ds->mean_token_efficiency, 1.0);
  EXPECT_LT(swipe->mean_token_efficiency, 1.0);
  // SWIPE's re-assigned tokens keep partial value.
  EXPECT_GT(swipe->mean_effective_token_rate,
            swipe->mean_token_efficiency);
}

TEST(ExperimentTest, BuildTraceGeneratorDerivesFromModel) {
  const ExperimentOptions o = SmallExperiment("flexmoe");
  const auto gen = BuildTraceGenerator(o);
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(gen->options().num_experts, o.model.num_experts);
  EXPECT_EQ(gen->options().num_gpus, o.num_gpus);
  EXPECT_EQ(gen->options().top_k, 2);
}

// Bad trace overrides come back as the generator's InvalidArgument instead
// of aborting inside calibration or the first step.
TEST(ExperimentTest, BadTraceOverridesReturnStatus) {
  ExperimentOptions o = SmallExperiment("flexmoe");
  const auto gen = BuildTraceGenerator(o);
  ASSERT_TRUE(gen.ok());
  o.use_trace_overrides = true;
  o.trace = gen->options();
  o.trace.ou_theta = std::nan("");
  const auto report = RunExperiment(o);
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
      << report.status().ToString();
}

TEST(ReportersTest, SpeedupFormat) {
  EXPECT_EQ(FormatSpeedup(1.726), "1.73x");
}

TEST(ReportersTest, AsciiHelpersProduceOutput) {
  EXPECT_FALSE(AsciiSeries({1, 2, 3, 2, 1}, 20, 5).empty());
  EXPECT_FALSE(AsciiCdf({0.4, 0.7, 0.9, 1.0}, 30).empty());
  EXPECT_TRUE(AsciiSeries({}, 20, 5).empty());
}

}  // namespace
}  // namespace flexmoe
