/** @file Unit tests for gem5-style logging helpers. */
#include <gtest/gtest.h>

#include "common/logging.h"

namespace astra {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config value %d", 42), FatalError);
    try {
        fatal("bandwidth %0.1f is invalid", 1.5);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bandwidth 1.5 is invalid");
    }
}

TEST(Logging, FatalWithoutArgsKeepsLiteralMessage)
{
    try {
        fatal("plain message with %d-like text untouched");
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "plain message with %d-like text untouched");
    }
}

TEST(Logging, UserCheckMacro)
{
    EXPECT_NO_THROW(ASTRA_USER_CHECK(true, "never"));
    EXPECT_THROW(ASTRA_USER_CHECK(false, "bad input %s", "x"), FatalError);
}

TEST(Logging, LevelThresholdOrdering)
{
    LogLevel before = logLevel();
    setLogLevel(LogLevel::Warn);
    EXPECT_TRUE(logEnabled(LogLevel::Error));
    EXPECT_TRUE(logEnabled(LogLevel::Warn));
    EXPECT_FALSE(logEnabled(LogLevel::Info));
    EXPECT_FALSE(logEnabled(LogLevel::Debug));
    setLogLevel(LogLevel::Debug);
    EXPECT_TRUE(logEnabled(LogLevel::Debug));
    setLogLevel(before);
}

TEST(Logging, LevelNamesRoundTrip)
{
    for (LogLevel l : {LogLevel::Error, LogLevel::Warn, LogLevel::Info,
                       LogLevel::Debug})
        EXPECT_EQ(logLevelFromString(logLevelName(l)), l);
    EXPECT_THROW(logLevelFromString("chatty"), FatalError);
    EXPECT_THROW(logLevelFromString(""), FatalError);
}

TEST(Logging, TaggedMessagesCarrySubsystemAndLevel)
{
    LogLevel before = logLevel();
    setLogLevel(LogLevel::Debug);
    testing::internal::CaptureStdout();
    informT("flow", "solver converged in %d rounds", 3);
    debugT("cluster", "job %d placed", 7);
    EXPECT_EQ(testing::internal::GetCapturedStdout(),
              "info: [flow] solver converged in 3 rounds\n"
              "debug: [cluster] job 7 placed\n");
    // Warn and up go to stderr, not stdout.
    testing::internal::CaptureStderr();
    warnT("fault", "link %d degraded", 2);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "warn: [fault] link 2 degraded\n");
    setLogLevel(before);
}

TEST(Logging, SuppressedLevelsEmitNothing)
{
    LogLevel before = logLevel();
    setLogLevel(LogLevel::Warn);
    testing::internal::CaptureStdout();
    informT("flow", "dropped");
    debug("also dropped");
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
    setLogLevel(before);
}

TEST(Logging, FormatVHandlesLongStrings)
{
    std::string long_str(5000, 'x');
    try {
        fatal("%s", long_str.c_str());
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()).size(), long_str.size());
    }
}

} // namespace
} // namespace astra
