// Robustness of the RoutingTrace binary format: hostile or damaged files
// must produce an error Status — never a crash, hang, or giant allocation
// — and Save/Load must round-trip arbitrary valid traces exactly.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "gate/routing_trace.h"
#include "gate/trace_source.h"
#include "test_env.h"
#include "util/rng.h"

namespace flexmoe {
namespace {

constexpr uint64_t kMagic = 0x464C58544D4F4531ULL;  // matches Save()

std::string WriteFile(const std::string& name,
                      const std::vector<uint64_t>& words,
                      int truncate_bytes = 0) {
  const std::string path = TempPath(name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  for (uint64_t w : words) std::fwrite(&w, sizeof(w), 1, f);
  if (truncate_bytes > 0) {
    // Re-open truncated to chop mid-word.
    long size = std::ftell(f);
    std::fclose(f);
    EXPECT_EQ(truncate(path.c_str(), size - truncate_bytes), 0);
    return path;
  }
  std::fclose(f);
  return path;
}

TEST(RoutingTraceRobustnessTest, MissingAndEmptyFiles) {
  EXPECT_FALSE(RoutingTrace::Load("/nonexistent/dir/trace.bin").ok());
  const std::string empty = WriteFile("empty.bin", {});
  EXPECT_FALSE(RoutingTrace::Load(empty).ok());
}

TEST(RoutingTraceRobustnessTest, WrongMagic) {
  const std::string path =
      WriteFile("wrong_magic.bin", {0xDEADBEEFDEADBEEFULL, 1, 1, 2, 2});
  const auto result = RoutingTrace::Load(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RoutingTraceRobustnessTest, TruncatedHeader) {
  EXPECT_FALSE(RoutingTrace::Load(WriteFile("just_magic.bin", {kMagic})).ok());
  EXPECT_FALSE(
      RoutingTrace::Load(WriteFile("no_layers.bin", {kMagic, 3})).ok());
  EXPECT_FALSE(
      RoutingTrace::Load(WriteFile("no_shape.bin", {kMagic, 3, 2})).ok());
}

TEST(RoutingTraceRobustnessTest, ZeroOrImplausibleShapes) {
  EXPECT_FALSE(
      RoutingTrace::Load(WriteFile("zero_experts.bin", {kMagic, 1, 1, 0, 2}))
          .ok());
  EXPECT_FALSE(
      RoutingTrace::Load(WriteFile("zero_gpus.bin", {kMagic, 1, 1, 2, 0}))
          .ok());
  // A corrupted header promising astronomically large dimensions must be
  // rejected up front, not attempted as an allocation.
  EXPECT_FALSE(RoutingTrace::Load(
                   WriteFile("huge_layers.bin",
                             {kMagic, 1, 1ull << 60, 2, 2, 0, 0, 0, 0}))
                   .ok());
  EXPECT_FALSE(RoutingTrace::Load(
                   WriteFile("huge_experts.bin",
                             {kMagic, 1, 1, 1ull << 60, 2, 0, 0, 0, 0}))
                   .ok());
  EXPECT_FALSE(RoutingTrace::Load(
                   WriteFile("huge_product.bin",
                             {kMagic, 1ull << 19, 1ull << 19, 1ull << 19,
                              1ull << 19}))
                   .ok());
}

TEST(RoutingTraceRobustnessTest, TruncatedBody) {
  // Header promises 1 step x 1 layer x 2 experts x 2 gpus = 4 words but
  // the body holds fewer — including a chop mid-word.
  EXPECT_FALSE(RoutingTrace::Load(
                   WriteFile("short_body.bin", {kMagic, 1, 1, 2, 2, 7, 7}))
                   .ok());
  EXPECT_FALSE(RoutingTrace::Load(WriteFile("midword.bin",
                                            {kMagic, 1, 1, 2, 2, 7, 7, 7, 7},
                                            /*truncate_bytes=*/3))
                   .ok());
}

TEST(RoutingTraceRobustnessTest, TrailingGarbageRejected) {
  const std::string path = WriteFile(
      "trailing.bin", {kMagic, 1, 1, 2, 2, 7, 7, 7, 7, /*extra=*/42});
  EXPECT_FALSE(RoutingTrace::Load(path).ok());
  // The steps == 0 header is not a loophole: an empty trace is exactly
  // three words.
  const std::string empty_trailing = WriteFile(
      "empty_trailing.bin", {kMagic, 0, 0, /*garbage=*/123, 456});
  EXPECT_FALSE(RoutingTrace::Load(empty_trailing).ok());
}

TEST(RoutingTraceRobustnessTest, CorruptCountRejected) {
  // A count that would go negative as int64 is corruption, not data.
  const std::string path = WriteFile(
      "negative.bin", {kMagic, 1, 1, 2, 2, 7, ~0ull, 7, 7});
  EXPECT_FALSE(RoutingTrace::Load(path).ok());
}

TEST(RoutingTraceRobustnessTest, ValidFileStillLoads) {
  const std::string path =
      WriteFile("valid.bin", {kMagic, 1, 1, 2, 2, 1, 2, 3, 4});
  const auto trace = RoutingTrace::Load(path);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->num_steps(), 1);
  EXPECT_EQ(trace->at(0, 0).at(0, 0), 1);
  EXPECT_EQ(trace->at(0, 0).at(1, 1), 4);
}

TEST(RoutingTraceRobustnessTest, EmptyTraceRoundTrips) {
  RoutingTrace trace;
  const std::string path = TempPath("empty_trace.bin");
  ASSERT_TRUE(trace.Save(path).ok());
  const auto loaded = RoutingTrace::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_steps(), 0);
}

TEST(RoutingTraceRobustnessTest, SaveToAFullDeviceFails) {
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  RoutingTrace trace;
  EXPECT_FALSE(trace.Save("/dev/full").ok());
}

// Property test: random shapes and counts survive Save/Load bit-exactly
// (the hash covers shapes and every cell).
TEST(RoutingTraceRobustnessTest, RandomRoundTripProperty) {
  Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    const int steps = 1 + static_cast<int>(rng.UniformInt(4));
    const int layers = 1 + static_cast<int>(rng.UniformInt(3));
    const int experts = 1 + static_cast<int>(rng.UniformInt(9));
    const int gpus = 1 + static_cast<int>(rng.UniformInt(7));
    RoutingTrace trace;
    uint64_t h_in = kTraceHashSeed;
    for (int s = 0; s < steps; ++s) {
      std::vector<Assignment> step;
      for (int l = 0; l < layers; ++l) {
        Assignment a(experts, gpus);
        for (int e = 0; e < experts; ++e) {
          for (int g = 0; g < gpus; ++g) {
            a.set(e, g, static_cast<int64_t>(rng.UniformInt(1u << 20)));
          }
        }
        step.push_back(std::move(a));
      }
      h_in = HashStep(step, h_in);
      ASSERT_TRUE(trace.Append(std::move(step)).ok());
    }
    const std::string path = TempPath("roundtrip.bin");
    ASSERT_TRUE(trace.Save(path).ok());
    const auto loaded = RoutingTrace::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->num_steps(), steps);
    ASSERT_EQ(loaded->num_layers(), layers);
    uint64_t h_out = kTraceHashSeed;
    for (int s = 0; s < steps; ++s) h_out = HashStep(loaded->step(s), h_out);
    EXPECT_EQ(h_in, h_out) << "trial " << trial;
  }
}

}  // namespace
}  // namespace flexmoe
