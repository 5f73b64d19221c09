/**
 * @file
 * Offline trace analytics over exported Chrome trace-event files
 * (docs/trace.md, "Analysis"): critical-path extraction, bottleneck
 * attribution, and cross-run diffing — the same analyzers Simulator
 * runs in-memory when `trace.analysis` is on.
 */
#include <cstdio>

#include "common/cli.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "trace/analysis/analysis.h"
#include "trace/analysis/diff.h"

using namespace astra;
using namespace astra::trace::analysis;

namespace {

int
run(const CommandLine &cl)
{
    const std::vector<std::string> &files = cl.positional();
    json::Value report;
    std::string csv;
    if (cl.getBool("diff")) {
        ASTRA_USER_CHECK(files.size() == 2,
                         "--diff needs exactly two trace files");
        TraceData a = TraceData::fromChromeFile(files[0]);
        TraceData b = TraceData::fromChromeFile(files[1]);
        TraceDiff diff = diffTraces(a, b);
        std::fputs(diffSummary(diff).c_str(), stdout);
        report = diffToJson(diff);
        csv = diffToCsv(diff);
    } else {
        ASTRA_USER_CHECK(files.size() == 1,
                         "expected one trace file (or --diff with two)");
        TraceData data = TraceData::fromChromeFile(files[0]);
        AnalysisOptions opts;
        opts.pid = static_cast<int32_t>(cl.getInt("pid", 0));
        opts.topLinks = static_cast<size_t>(cl.getInt("top-links", 5));
        opts.topStretch = static_cast<size_t>(cl.getInt("stretch", 10));
        AnalysisResult result = analyzeTrace(data, opts);
        std::fputs(analysisSummary(result).c_str(), stdout);
        if (cl.getBool("critical-path")) {
            // Per-segment dump: the gap-free tiling of [0, path end].
            std::printf("critical path segments:\n");
            for (const PathSegment &seg : result.path.segments)
                std::printf("  [%14.3f, %14.3f) ns  rank %-4d %s\n",
                            seg.startNs, seg.endNs, seg.tid,
                            seg.kind.c_str());
        }
        report = analysisToJson(result);
        csv = analysisToCsv(result);
    }
    if (cl.has("json"))
        OutputFile::write(cl.getString("json", ""), "JSON file",
                          report.dump(2) + "\n");
    if (cl.has("csv"))
        OutputFile::write(cl.getString("csv", ""), "CSV file", csv);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagGroup flags = {
        {"diff", FlagKind::Switch, "diff two traces"},
        {"critical-path", FlagKind::Switch, "print every path segment"},
        {"top-links", FlagKind::Value, "bottleneck links listed (default 5)"},
        {"stretch", FlagKind::Value, "stretch rows listed (default 10)"},
        {"json", FlagKind::Value, "write the report as JSON"},
        {"csv", FlagKind::Value, "write the report as CSV"},
        {"pid", FlagKind::Value, "trace process to analyze (default 0)"}};
    CliSpec spec{.usage = {"trace_analyze <timeline.json> [flags]",
                           "trace_analyze --diff <a.json> <b.json> [flags]"},
                 .groups = {flags, logFlags()},
                 .maxPositional = 2};
    return runCli(argc, argv, spec, run);
}
