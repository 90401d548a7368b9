// Edge cases of the golden-digest format (harness/golden.cc): previously
// only the happy path ran, through workload_golden_test. These pin the
// parser and comparator against empty files, hostile lines, mismatched
// cell identities, and NaN metrics (which naive float comparison would
// silently PASS, since every NaN comparison is false).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "harness/golden.h"
#include "test_env.h"

namespace flexmoe {
namespace {

void WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(content.c_str(), f);
  std::fclose(f);
}

MetricsDigest BaseDigest() {
  MetricsDigest d;
  d.label = "bursty/flexmoe";
  d.system = "FlexMoE";
  d.workload = "bursty";
  d.num_gpus = 16;
  d.steps = 60;
  d.trace_hash = 0xdeadbeef12345678ULL;
  d.mean_step_seconds = 0.0123;
  d.throughput_tokens_per_sec = 2.5e6;
  d.mean_balance_ratio = 1.4;
  d.mean_token_efficiency = 1.0;
  d.mean_expert_efficiency = 0.9;
  d.mean_gpu_utilization = 0.6;
  d.hours_to_target = 2.2;
  d.ops_applied = 17;
  d.tokens_dropped = 0;
  return d;
}

// ---- file-level edge cases ------------------------------------------------

TEST(GoldenFileTest, EmptyFileLoadsAsZeroDigests) {
  const std::string path = TempPath("empty.golden");
  WriteFile(path, "");
  const auto digests = LoadDigests(path);
  ASSERT_TRUE(digests.ok());
  EXPECT_TRUE(digests->empty());
}

TEST(GoldenFileTest, CommentsAndBlankLinesAreSkipped) {
  const std::string path = TempPath("comments.golden");
  WriteFile(path, "# header\n\n# another comment\n\n");
  const auto digests = LoadDigests(path);
  ASSERT_TRUE(digests.ok());
  EXPECT_TRUE(digests->empty());
}

TEST(GoldenFileTest, MissingFileIsNotFound) {
  EXPECT_FALSE(LoadDigests(TempPath("nonexistent.golden")).ok());
}

TEST(GoldenFileTest, CorruptLineFailsTheWholeLoad) {
  const std::string path = TempPath("corrupt.golden");
  WriteFile(path,
            FormatDigest(BaseDigest()) + "\nthis is not a digest line\n");
  EXPECT_FALSE(LoadDigests(path).ok());
}

TEST(GoldenFileTest, CrlfLineEndingsParse) {
  const std::string path = TempPath("crlf.golden");
  WriteFile(path, "# header\r\n" + FormatDigest(BaseDigest()) + "\r\n");
  const auto digests = LoadDigests(path);
  ASSERT_TRUE(digests.ok());
  ASSERT_EQ(digests->size(), 1u);
  EXPECT_TRUE(CompareDigests(BaseDigest(), (*digests)[0], 0.0).ok());
}

TEST(GoldenFileTest, SaveLoadRoundTripsExactly) {
  const std::string path = TempPath("roundtrip.golden");
  MetricsDigest a = BaseDigest();
  MetricsDigest b = BaseDigest();
  b.label = "bursty/deepspeed";
  b.system = "DeepSpeed";
  b.tokens_dropped = 123456789;
  ASSERT_TRUE(SaveDigests({a, b}, path).ok());
  const auto loaded = LoadDigests(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_TRUE(CompareDigests(a, (*loaded)[0], 0.0).ok());
  EXPECT_TRUE(CompareDigests(b, (*loaded)[1], 0.0).ok());
}

TEST(GoldenFileTest, SaveToAFullDeviceFails) {
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(SaveDigests({BaseDigest()}, "/dev/full").ok());
}

// ---- hostile tokens -------------------------------------------------------

TEST(GoldenParseTest, RejectsHostileTokens) {
  EXPECT_FALSE(ParseDigest("label=x =value").ok());     // empty key
  EXPECT_FALSE(ParseDigest("label=x novalue").ok());    // no '='
  EXPECT_FALSE(ParseDigest("label=x bogus=1").ok());    // unknown key
  EXPECT_FALSE(ParseDigest("label=x mode=train").ok()); // unknown mode
  EXPECT_FALSE(ParseDigest("steps=60").ok());           // no label/hash
  EXPECT_FALSE(ParseDigest("label=x").ok());            // no trace_hash
  // trace_hash alone (no label) is equally incomplete.
  EXPECT_FALSE(ParseDigest("trace_hash=0123456789abcdef").ok());
}

TEST(GoldenParseTest, RejectsValuesThatDoNotParseWhole) {
  const std::string head = "label=x trace_hash=00000000000000ff";
  EXPECT_TRUE(ParseDigest(head + " gpus=16 steps=4 step_s=1.5").ok());
  for (const char* bad :
       {"gpus=abc", "gpus=", "gpus=16x", "gpus= 16", "gpus=4294967297",
        "steps=4x", "steps=1.5", "ops=9223372036854775808", "req=1e3",
        "step_s=1.5junk", "step_s=", "throughput=abc", "p99=1e999"}) {
    EXPECT_FALSE(ParseDigest(head + " " + bad).ok()) << bad;
  }
  for (const char* bad_hash :
       {"trace_hash=zz", "trace_hash=ff", "trace_hash=00000000000000fg",
        "trace_hash=000000000000000ff", "trace_hash=-0000000000000ff"}) {
    EXPECT_FALSE(ParseDigest(std::string("label=x ") + bad_hash).ok())
        << bad_hash;
  }
}

TEST(GoldenParseTest, EveryFormattedValueParsesBack) {
  // Extremes of every field type, infinities and NaNs included.
  MetricsDigest d = BaseDigest();
  d.serving = true;
  d.num_gpus = std::numeric_limits<int>::max();
  d.steps = std::numeric_limits<int>::min();
  d.trace_hash = std::numeric_limits<uint64_t>::max();
  d.ops_applied = std::numeric_limits<int64_t>::max();
  d.tokens_dropped = std::numeric_limits<int64_t>::min();
  d.mean_step_seconds = std::numeric_limits<double>::infinity();
  d.throughput_tokens_per_sec = -std::numeric_limits<double>::infinity();
  d.p99_latency_seconds = -std::nan("");
  d.mean_balance_ratio = std::numeric_limits<double>::denorm_min();
  d.mean_token_efficiency = std::numeric_limits<double>::max();
  const auto parsed = ParseDigest(FormatDigest(d));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(FormatDigest(*parsed), FormatDigest(d));
}

TEST(GoldenParseTest, LabelAndHashSufficeAndDefaultTheRest) {
  const auto d = ParseDigest("label=x trace_hash=00000000000000ff");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->label, "x");
  EXPECT_EQ(d->trace_hash, 0xffu);
  EXPECT_EQ(d->steps, 0);
  EXPECT_FALSE(d->serving);
}

// ---- identity mismatches --------------------------------------------------

TEST(GoldenCompareTest, MismatchedCellNamesAreIdentityErrors) {
  const MetricsDigest golden = BaseDigest();
  MetricsDigest fresh = BaseDigest();
  fresh.label = "diurnal/flexmoe";
  Status s = CompareDigests(golden, fresh, 1e-9);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("identity"), std::string::npos);

  fresh = BaseDigest();
  fresh.system = "DeepSpeed";
  EXPECT_FALSE(CompareDigests(golden, fresh, 1e-9).ok());

  fresh = BaseDigest();
  fresh.workload = "diurnal";
  EXPECT_FALSE(CompareDigests(golden, fresh, 1e-9).ok());

  fresh = BaseDigest();
  fresh.num_gpus = 32;
  EXPECT_FALSE(CompareDigests(golden, fresh, 1e-9).ok());
}

// ---- NaN metrics ----------------------------------------------------------

TEST(GoldenNanTest, NanRoundTripsThroughTheTextFormat) {
  MetricsDigest d = BaseDigest();
  d.hours_to_target = std::nan("");
  const auto parsed = ParseDigest(FormatDigest(d));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(std::isnan(parsed->hours_to_target));
}

TEST(GoldenNanTest, NanMatchesOnlyNan) {
  MetricsDigest nan_digest = BaseDigest();
  nan_digest.hours_to_target = std::nan("");

  // Both NaN: the cell pinned a NaN and still produces one — a match.
  MetricsDigest also_nan = BaseDigest();
  also_nan.hours_to_target = std::nan("");
  EXPECT_TRUE(CompareDigests(nan_digest, also_nan, 1e-9).ok());

  // NaN vs number must FAIL in both directions; a naive relative-error
  // comparison is false for every NaN operand and would silently pass.
  MetricsDigest finite = BaseDigest();
  EXPECT_FALSE(CompareDigests(nan_digest, finite, 1e-9).ok());
  EXPECT_FALSE(CompareDigests(finite, nan_digest, 1e-9).ok());
}

}  // namespace
}  // namespace flexmoe
