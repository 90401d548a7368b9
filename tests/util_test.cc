// Tests for Status/Result, string utilities, and table rendering.

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

#include "test_env.h"
#include "util/file_io.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table.h"

namespace flexmoe {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsCarryCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  FLEXMOE_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  const Status s = UseHalf(3, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

Status Chain(bool fail) {
  FLEXMOE_RETURN_IF_ERROR(fail ? Status::Internal("boom") : Status::OK());
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(Chain(false).ok());
  EXPECT_EQ(Chain(true).code(), StatusCode::kInternal);
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.234), "1.23");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, HumanTime) {
  EXPECT_EQ(HumanTime(7200), "2.00 h");
  EXPECT_EQ(HumanTime(90), "1.50 min");
  EXPECT_EQ(HumanTime(1.5), "1.50 s");
  EXPECT_EQ(HumanTime(0.0025), "2.50 ms");
  EXPECT_EQ(HumanTime(2.5e-6), "2.50 us");
}

TEST(StringUtilTest, SplitAndLowerAndStartsWith) {
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(ToLower("FlexMoE"), "flexmoe");
  EXPECT_TRUE(StartsWith("flexmoe", "flex"));
  EXPECT_FALSE(StartsWith("flex", "flexmoe"));
}

TEST(TableTest, AsciiRendering) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"beta", "22"});
  const std::string out = t.ToAscii();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(TableTest, CsvQuotesCommas) {
  Table t({"a", "b"});
  t.AddRow({"x,y", "z"});
  // Comma-containing cells must be quoted in CSV.
  EXPECT_NE(t.ToCsv().find("\"x,y\""), std::string::npos);
}

TEST(TableTest, RowWidthMismatchDies) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only-one"}), "row width");
}

TEST(FileIoTest, WriteThenReadRoundTrips) {
  const std::string path = TempPath("file_io.bin");
  const std::string bytes("a\0b\n", 4);
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  const Result<std::string> back = ReadFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, bytes);
  EXPECT_EQ(ReadFile(TempPath("never_written.bin")).status().code(),
            StatusCode::kNotFound);
}

TEST(FileIoTest, FailedWriteIsAnError) {
  EXPECT_FALSE(WriteFile(testing::TempDir() + "/no_such_dir/x", "x").ok());
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  // /dev/full takes the open and the buffered write, and fails the flush
  // at close.
  EXPECT_FALSE(WriteFile("/dev/full", "x").ok());
}

}  // namespace
}  // namespace flexmoe
