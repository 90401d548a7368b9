// Tests for the leveled logger: FLEXMOE_LOG_LEVEL environment pickup,
// ParseLogLevel, the pluggable sink, and level filtering.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace flexmoe {
namespace {

// The environment override is read once, lazily, at the first
// SetLogLevel/GetLogLevel call, so the pickup is checked in a fresh
// process: the threadsafe death-test style re-executes this binary for the
// statement, and the child inherits the variable.
TEST(LoggingTest, EnvVarSetsInitialLevel) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  ::setenv("FLEXMOE_LOG_LEVEL", "debug", 1);
  EXPECT_EXIT(
      {
        const bool from_env = GetLogLevel() == LogLevel::kDebug;
        // An explicit SetLogLevel always wins over the environment.
        SetLogLevel(LogLevel::kWarning);
        std::exit(from_env && GetLogLevel() == LogLevel::kWarning ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  ::unsetenv("FLEXMOE_LOG_LEVEL");
}

TEST(LoggingTest, ParseLogLevel) {
  LogLevel level = LogLevel::kError;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);

  level = LogLevel::kInfo;
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, LogLevel::kInfo);  // untouched on failure
}

TEST(LoggingTest, SinkCapturesFormattedLineAndLevelFilters) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  SetLogSink([&captured](LogLevel level, const std::string& line) {
    captured.emplace_back(level, line);
  });
  SetLogLevel(LogLevel::kInfo);

  FLEXMOE_LOG(Debug) << "dropped";
  FLEXMOE_LOG(Info) << "kept " << 42;
  FLEXMOE_LOG(Error) << "also kept";

  SetLogSink(nullptr);  // restore stderr before any assertion can log
  SetLogLevel(LogLevel::kWarning);

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::kInfo);
  EXPECT_NE(captured[0].second.find("[INFO logging_test.cc:"),
            std::string::npos);
  EXPECT_NE(captured[0].second.find("kept 42"), std::string::npos);
  EXPECT_EQ(captured[1].first, LogLevel::kError);
  EXPECT_NE(captured[1].second.find("also kept"), std::string::npos);
}

}  // namespace
}  // namespace flexmoe
