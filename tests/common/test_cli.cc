/** @file Unit tests for the command-line flag parser. */
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/logging.h"

namespace astra {
namespace {

/** Value flags named `values`, switches named `switches`. */
CommandLine
make(std::vector<const char *> argv, std::vector<const char *> values,
     std::vector<const char *> switches = {})
{
    argv.insert(argv.begin(), "prog");
    std::vector<Flag> flags;
    for (const char *name : values)
        flags.push_back({name, FlagKind::Value, ""});
    for (const char *name : switches)
        flags.push_back({name, FlagKind::Switch, ""});
    return CommandLine(static_cast<int>(argv.size()), argv.data(), flags);
}

TEST(Cli, SpaceAndEqualsForms)
{
    CommandLine cl =
        make({"--size", "1024", "--topo=R(4)_SW(2)"}, {"size", "topo"});
    EXPECT_EQ(cl.getInt("size", 0), 1024);
    EXPECT_EQ(cl.getString("topo", ""), "R(4)_SW(2)");
}

TEST(Cli, BooleanSwitches)
{
    CommandLine cl = make({"--verbose", "--fast=false"}, {},
                          {"verbose", "fast"});
    EXPECT_TRUE(cl.getBool("verbose"));
    EXPECT_FALSE(cl.getBool("fast", true));
    EXPECT_FALSE(cl.getBool("missing"));
}

TEST(Cli, DoublesAndDefaults)
{
    CommandLine cl = make({"--bw", "437.5"}, {"bw", "lat"});
    EXPECT_DOUBLE_EQ(cl.getDouble("bw", 0.0), 437.5);
    EXPECT_DOUBLE_EQ(cl.getDouble("lat", 500.0), 500.0);
    EXPECT_TRUE(cl.has("bw"));
    EXPECT_FALSE(cl.has("lat"));
}

TEST(Cli, PositionalArguments)
{
    CommandLine cl = make({"input.json", "--n", "2", "out.json"}, {"n"});
    ASSERT_EQ(cl.positional().size(), 2u);
    EXPECT_EQ(cl.positional()[0], "input.json");
    EXPECT_EQ(cl.positional()[1], "out.json");
}

TEST(Cli, UnknownFlagIsFatal)
{
    EXPECT_THROW(make({"--oops", "1"}, {"size"}), FatalError);
}

TEST(Cli, BadNumbersAreFatal)
{
    CommandLine cl = make({"--n", "abc"}, {"n"});
    EXPECT_THROW(cl.getInt("n", 0), FatalError);
    EXPECT_THROW(cl.getDouble("n", 0.0), FatalError);
}

TEST(Cli, SwitchNeverTakesTheNextToken)
{
    CommandLine cl = make({"--verbose", "spec.json", "--threads", "1"},
                          {"threads"}, {"verbose"});
    EXPECT_TRUE(cl.getBool("verbose"));
    ASSERT_EQ(cl.positional().size(), 1u);
    EXPECT_EQ(cl.positional()[0], "spec.json");
    EXPECT_EQ(cl.getInt("threads", 0), 1);
}

TEST(Cli, ValuesMustUseTheWholeToken)
{
    CommandLine cl = make({"--threads", "2x", "--bytes", "1e9junk"},
                          {"threads", "bytes"});
    EXPECT_THROW(cl.getInt("threads", 0), FatalError);
    EXPECT_THROW(cl.getDouble("bytes", 0.0), FatalError);
    EXPECT_DOUBLE_EQ(make({"--bytes", "1e9"}, {"bytes"})
                         .getDouble("bytes", 0.0),
                     1e9);
    EXPECT_THROW(make({"--no-baselines=maybe"}, {}, {"no-baselines"}),
                 FatalError);
    // A value flag needs its value.
    EXPECT_THROW(make({"--csv"}, {"csv"}), FatalError);
    EXPECT_THROW(make({"--csv", "--json", "x"}, {"csv", "json"}),
                 FatalError);
}

TEST(Cli, OptionalValueTakesOnlyANonFlagToken)
{
    std::vector<Flag> flags = {{"auto-diff", FlagKind::Optional, ""},
                               {"csv", FlagKind::Value, ""}};
    const char *bare[] = {"prog", "--auto-diff", "--csv", "o.csv"};
    CommandLine a(4, bare, flags);
    EXPECT_TRUE(a.has("auto-diff"));
    EXPECT_EQ(a.getString("auto-diff", "x"), "");
    EXPECT_EQ(a.getString("csv", ""), "o.csv");
    const char *valued[] = {"prog", "--auto-diff", "d.json"};
    EXPECT_EQ(CommandLine(3, valued, flags).getString("auto-diff", ""),
              "d.json");
}

/** Run runCli over `argv`; returns its exit code and captures stdout
 *  and stderr. */
int
runCaptured(std::vector<const char *> argv, std::string &out,
            std::string &err,
            const std::function<int(const CommandLine &)> &body)
{
    argv.insert(argv.begin(), "prog");
    CliSpec spec{.usage = {"prog [flags]"},
                 .groups = {{{"n", FlagKind::Value, "a number"}},
                            logFlags()}};
    LogLevel before = logLevel();
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    int rc = runCli(static_cast<int>(argv.size()), argv.data(), spec,
                    body);
    out = testing::internal::GetCapturedStdout();
    err = testing::internal::GetCapturedStderr();
    setLogLevel(before);
    return rc;
}

TEST(Cli, RunCliExitContract)
{
    std::string out, err;
    auto ok = [](const CommandLine &) { return 0; };
    EXPECT_EQ(runCaptured({"--help"}, out, err, ok), 0);
    EXPECT_NE(out.find("--n VALUE"), std::string::npos) << out;
    EXPECT_NE(out.find("--log-level VALUE"), std::string::npos) << out;
    EXPECT_NE(out.find("--help"), std::string::npos) << out;
    EXPECT_EQ(err, "");

    EXPECT_EQ(runCaptured({"--bogus"}, out, err, ok), 2);
    EXPECT_EQ(err, "error: unknown flag --bogus (see --help)\n");
    EXPECT_EQ(runCaptured({"stray"}, out, err, ok), 2);
    EXPECT_EQ(err.rfind("error: unexpected argument 'stray'", 0), 0u)
        << err;

    // A user error inside the body, even one quoting a newline, is one
    // stderr line and exit 2.
    auto bad = [](const CommandLine &cl) {
        return static_cast<int>(cl.getInt("n", 0));
    };
    EXPECT_EQ(runCaptured({"--n", "3\n4"}, out, err, bad), 2);
    EXPECT_EQ(err, "error: flag --n expects an integer, got '3 4'\n");
    EXPECT_EQ(runCaptured({"--n", "7"}, out, err, bad), 7);
}

TEST(Cli, RunCliAnswersSampleWhenTheBinaryWritesOne)
{
    std::string written;
    CliSpec spec{.sample = [&written](const std::string &path) {
        written = path;
    }};
    const char *argv[] = {"prog", "--sample", "example.json"};
    testing::internal::CaptureStdout();
    EXPECT_EQ(runCli(3, argv, spec,
                     [](const CommandLine &) { return 7; }),
              0);
    EXPECT_EQ(testing::internal::GetCapturedStdout(),
              "wrote example.json\n");
    EXPECT_EQ(written, "example.json");

    // Without a writer, --sample is not a flag of the binary.
    testing::internal::CaptureStderr();
    EXPECT_EQ(runCli(3, argv, {}, [](const CommandLine &) { return 7; }),
              2);
    testing::internal::GetCapturedStderr();
}

TEST(Cli, RunCliAppliesTheLogGroup)
{
    std::string out, err;
    LogLevel seen = LogLevel::Error;
    auto probe = [&seen](const CommandLine &) {
        seen = logLevel();
        return 0;
    };
    runCaptured({}, out, err, probe);
    EXPECT_EQ(seen, LogLevel::Warn);
    runCaptured({"--verbose"}, out, err, probe);
    EXPECT_EQ(seen, LogLevel::Info);
    runCaptured({"--verbose", "--log-level", "error"}, out, err, probe);
    EXPECT_EQ(seen, LogLevel::Error);
}

} // namespace
} // namespace astra
