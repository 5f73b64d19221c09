/**
 * @file
 * Peak-memory bounds of trace analysis (docs/trace.md "Analysis"),
 * measured on the command-line binaries:
 *
 *  - live `trace_runner --trace-analysis` stays under 64 MiB: analysis
 *    keeps one busy total per link, not a utilization series;
 *  - `trace_analyze` on the ~129 MB pipeline_traced timeline stays
 *    under 128 MiB: it reads the file a field at a time into compact
 *    spans.
 *
 * Each bound is the max RSS of one child, read from wait4. The child
 * is forked before this process does any large work, so it inherits
 * little; RUSAGE_CHILDREN would also count the child that writes the
 * trace (~144 MiB). The directory name labels this suite `heavy`:
 * the bounds do not hold under AddressSanitizer, so sanitizer builds
 * run `ctest -LE heavy`.
 */
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/output_file.h"

namespace astra {
namespace {

const std::string kBinDir = ASTRA_BIN_DIR;
const std::string kOutDir = std::string(ASTRA_SMOKE_DIR) + "/peak_rss";

/** Runs `argv` with stdout discarded, expects exit 0, and returns the
 *  child's max RSS in KiB. */
long
childMaxRssKib(std::vector<std::string> argv)
{
    std::vector<char *> args;
    for (std::string &arg : argv)
        args.push_back(arg.data());
    args.push_back(nullptr);
    pid_t pid = fork();
    if (pid == 0) {
        int null = open("/dev/null", O_WRONLY);
        if (null >= 0)
            dup2(null, STDOUT_FILENO);
        execv(args[0], args.data());
        _exit(127);
    }
    EXPECT_GT(pid, 0) << "fork failed";
    int status = 0;
    rusage usage{};
    EXPECT_EQ(wait4(pid, &status, 0, &usage), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << argv[0] << ": wait status " << status;
    return usage.ru_maxrss;
}

TEST(PeakRss, LiveTraceAnalysisStaysUnder64MiB)
{
    std::filesystem::create_directories(kOutDir);
    const std::string out = kOutDir + "/analysis-smoke.json";
    long kib = childMaxRssKib({kBinDir + "/trace_runner",
                               "--trace-analysis",
                               "--trace-analysis-out", out});
    EXPECT_LT(kib, 64 * 1024);
    EXPECT_GE(json::parseFile(out).at("links").asArray().size(), 1u);
}

TEST(PeakRss, TraceAnalyzeOnThePipelineTraceStaysUnder128MiB)
{
    std::filesystem::create_directories(kOutDir);
    const std::string spec = kOutDir + "/pipeline-spec.json";
    const std::string trace = kOutDir + "/pipeline-trace.json";
    const std::string out = kOutDir + "/analysis-pipeline.json";
    OutputFile::write(spec, "spec", R"json({"base": {
      "topology": "Ring(64,200,300)", "backend": "analytical",
      "workload": {"kind": "pipeline", "model": "gpt3",
                   "microbatches": 256, "iterations": 8},
      "trace": {"file": ")json" + trace + R"json(", "detail": "full"}},
     "axes": [{"path": "workload.microbatches", "values": [256]}]})json");
    childMaxRssKib({kBinDir + "/sweep_runner", spec, "--threads", "1"});
    long kib =
        childMaxRssKib({kBinDir + "/trace_analyze", trace, "--json", out});
    std::filesystem::remove(trace);
    EXPECT_LT(kib, 128 * 1024);
    EXPECT_FALSE(json::parseFile(out)
                     .at("critical_path")
                     .at("segments")
                     .asArray()
                     .empty());
}

} // namespace
} // namespace astra
