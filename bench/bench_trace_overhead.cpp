/**
 * @file
 * Tracing overhead gate (docs/trace.md, "overhead contract"). Emits
 * BENCH_trace.json via scripts/bench.sh so the cost of the
 * introspection layer is tracked across PRs.
 *
 * One scenario — hier_allreduce_256 (bench_util.h), the
 * contention-heavy staggered hierarchical All-Reduce, on the flow
 * backend — run three ways: tracing off, `detail: spans`, and
 * `detail: full` (per-message lifetimes, flow rate segments, chunk
 * phases, link occupancy, sampled callback timing). The traced run's
 * wall time may exceed the untraced run's by at most 25% (min-of-N
 * wall samples on both sides, so the ratio gates real recording cost,
 * not scheduler jitter); the binary exits non-zero past that budget.
 * Exporting the JSON afterwards is I/O, not simulation overhead, and
 * is reported separately as `trace_write_seconds`. That tracing
 * leaves simulated time and event count bit-identical, and the
 * number of events each detail level records, are pinned by
 * `TraceBitIdentity.HierAllreduce256MatchesUntracedAtEveryDetail`
 * (tests/trace/test_tracer.cc).
 *
 * The full-detail export is also written (then removed) so the
 * bench exercises the same writer path Perfetto consumes.
 */
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "event/event_queue.h"
#include "trace/tracer.h"

using namespace astra;

namespace {

constexpr int kReps = 9; //!< min-wall over this many runs per config.

struct RunResult
{
    double wallSeconds = 0.0;  //!< min over kReps.
    double writeSeconds = 0.0; //!< Chrome-trace export wall (full).
};

/** hier_allreduce_256 on the flow backend — phases start and finish
 *  continuously, so the trace sees the full mix of message,
 *  flow-rate, and chunk-phase events. */
RunResult
runOnce(trace::Detail detail, const std::string &trace_path)
{
    bench::HierAllreduce256 run(NetworkBackendKind::Flow);

    // Mirror the Simulator's wiring exactly (astra/simulator.cc), so
    // the measured overhead is what a traced simulation actually pays:
    // tracer hooks plus the event-queue self-profile with sampled
    // callback timing at detail full.
    std::unique_ptr<trace::Tracer> tracer;
    QueueProfile profile;
    if (detail != trace::Detail::Off) {
        trace::TraceConfig cfg;
        cfg.detail = detail;
        tracer = std::make_unique<trace::Tracer>(cfg);
        run.net->setTracer(tracer.get());
        run.engine.setTracer(tracer.get(), 0);
        profile.timeCallbacks = tracer->full();
        run.eq.setProfile(&profile);
    }

    RunResult r;
    r.wallSeconds = run.run();
    if (tracer != nullptr && !trace_path.empty()) {
        auto w0 = std::chrono::steady_clock::now();
        tracer->writeChromeTrace(trace_path);
        r.writeSeconds = bench::wallSince(w0);
    }
    return r;
}

/** Min-of-kReps wall per config, with the three configs INTERLEAVED
 *  round-robin rather than run in blocks: the overhead ratio is then
 *  immune to machine-wide drift across the bench's lifetime (CPU
 *  steal, thermal, page cache), which on small boxes dwarfs the
 *  effect being measured. The export is timed min-of-kReps too. */
void
runInterleaved(RunResult &off, RunResult &spans, RunResult &full,
               const std::string &trace_path)
{
    struct Config
    {
        trace::Detail detail;
        RunResult *out;
        const std::string *path;
    };
    const std::string none;
    const Config configs[] = {
        {trace::Detail::Off, &off, &none},
        {trace::Detail::Spans, &spans, &none},
        {trace::Detail::Full, &full, &trace_path},
    };
    for (int i = 0; i < kReps; ++i) {
        for (const Config &c : configs) {
            RunResult r = runOnce(c.detail, *c.path);
            if (i == 0) {
                *c.out = r;
                continue;
            }
            c.out->wallSeconds =
                std::min(c.out->wallSeconds, r.wallSeconds);
            c.out->writeSeconds =
                std::min(c.out->writeSeconds, r.writeSeconds);
        }
    }
}

std::string
jsonReport(const RunResult &off, const RunResult &spans,
           const RunResult &full, double spans_over, double full_over)
{
    std::string out = "{\n  \"bench\": \"trace_overhead\",\n"
                      "  \"scenarios\": {\n";
    out += detail::formatV(
        "    \"hier_allreduce_256_off\": {\"wall_seconds\": %.6f},\n",
        off.wallSeconds);
    out += detail::formatV(
        "    \"hier_allreduce_256_spans\": {\"wall_seconds\": %.6f, "
        "\"overhead_frac\": %.6f},\n",
        spans.wallSeconds, spans_over);
    out += detail::formatV(
        "    \"hier_allreduce_256_full\": {\"wall_seconds\": %.6f, "
        "\"overhead_frac\": %.6f, \"trace_write_seconds\": %.6f}\n",
        full.wallSeconds, full_over, full.writeSeconds);
    out += "  }\n}\n";
    return out;
}

int
runBench(const CommandLine &cl)
{
    // --trace-out keeps the timeline for inspection.
    std::string trace_path =
        cl.getString("trace-out", "bench_trace_timeline.json");
    bool keep_trace = cl.has("trace-out");

    std::printf("tracing overhead on hier_allreduce_256 "
                "(flow backend, min of %d runs)\n\n",
                kReps);
    RunResult off, spans, full;
    runInterleaved(off, spans, full, trace_path);
    if (!keep_trace)
        std::remove(trace_path.c_str());

    double spans_over =
        off.wallSeconds > 0.0
            ? (spans.wallSeconds - off.wallSeconds) / off.wallSeconds
            : 0.0;
    double full_over =
        off.wallSeconds > 0.0
            ? (full.wallSeconds - off.wallSeconds) / off.wallSeconds
            : 0.0;

    std::printf("%-8s %8.4f s wall\n", "off", off.wallSeconds);
    std::printf("%-8s %8.4f s wall  +%5.1f%%\n", "spans",
                spans.wallSeconds, 100.0 * spans_over);
    std::printf("%-8s %8.4f s wall  +%5.1f%%  (export %.4f s, "
                "separate)\n",
                "full", full.wallSeconds, 100.0 * full_over,
                full.writeSeconds);

    // The recording budget (docs/trace.md), enforced here so a drift
    // fails bench.sh --check loudly.
    if (full_over > 0.25) {
        std::printf("\nFAIL: full-detail recording overhead %.1f%% "
                    "exceeds the 25%% budget\n",
                    100.0 * full_over);
        return 1;
    }

    if (cl.has("json"))
        OutputFile::write(cl.getString("json", ""), "bench JSON",
                          jsonReport(off, spans, full, spans_over, full_over));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliSpec spec{.groups = {{bench::kJsonFlag,
                             {"trace-out", FlagKind::Value, "keep trace"}}}};
    return runCli(argc, argv, spec, runBench);
}
