/**
 * @file
 * Tracing overhead gate (docs/trace.md, "overhead contract"). Emits
 * BENCH_trace.json via scripts/bench.sh so the cost of the
 * introspection layer is tracked across PRs.
 *
 * One scenario — hier_allreduce_256, the contention-heavy staggered
 * hierarchical All-Reduce from bench_flow_vs_packet, on the flow
 * backend — run three ways: tracing off, `detail: spans`, and
 * `detail: full` (per-message lifetimes, flow rate segments, chunk
 * phases, link occupancy, sampled callback timing). The binary
 * enforces both halves of the contract and exits non-zero on
 * violation, so a drift fails bench.sh --check loudly:
 *
 *  - Bit-identity: simulated time and executed-event count must be
 *    IDENTICAL across off/spans/full (the tracer is observational).
 *  - Recording overhead: the traced run's wall time may exceed the
 *    untraced run's by at most 25% (min-of-N wall samples on both
 *    sides, so the ratio gates real recording cost, not scheduler
 *    jitter). Exporting the JSON afterwards is I/O, not simulation
 *    overhead, and is reported separately as `trace_write_seconds`.
 *
 * The full-detail export is also written once (then removed) so the
 * bench exercises the same writer path Perfetto consumes.
 */
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "collective/engine.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "common/units.h"
#include "event/event_queue.h"
#include "network/flow/flow_network.h"
#include "trace/tracer.h"

using namespace astra;
using namespace astra::literals;

namespace {

constexpr int kReps = 9; //!< min-wall over this many runs per config.

struct RunResult
{
    TimeNs simTimeNs = 0.0;
    uint64_t events = 0;
    double wallSeconds = 0.0;   //!< min over kReps.
    uint64_t traceEvents = 0;   //!< timeline events recorded.
    double writeSeconds = 0.0;  //!< Chrome-trace export wall (full).
};

/** The hier_allreduce_256 scenario from bench_flow_vs_packet: four
 *  staggered chunked hierarchical All-Reduces on Ring(8) x Switch(32),
 *  flow backend — phases start and finish continuously, so the trace
 *  sees the full mix of message, flow-rate, and chunk-phase events. */
RunResult
runOnce(trace::Detail detail, const std::string &trace_path)
{
    Topology topo({{BlockType::Ring, 8, 200.0, 300.0},
                   {BlockType::Switch, 32, 50.0, 500.0}});
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.bytes = 2_MB;
    req.chunks = 4;
    const int kRounds = 4;
    const TimeNs kStagger = 12000.0;

    EventQueue eq;
    FlowNetwork net(eq, topo);
    CollectiveEngine engine(net);

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
        net.setTracer(tracer.get());
        engine.setTracer(tracer.get(), 0);
        profile.timeCallbacks = tracer->full();
        eq.setProfile(&profile);
    }

    int remaining = topo.npus() * kRounds;
    auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < kRounds; ++r) {
        eq.schedule(r * kStagger, [&engine, &topo, &req, &remaining, r] {
            for (NpuId npu = 0; npu < topo.npus(); ++npu)
                engine.join(0xBE5C0000ULL + static_cast<uint64_t>(r),
                            npu, req, [&remaining] { --remaining; });
        });
    }
    eq.run();
    auto end = std::chrono::steady_clock::now();
    ASTRA_ASSERT(remaining == 0, "collectives lost");

    RunResult r;
    r.simTimeNs = eq.now();
    r.events = eq.executedEvents();
    r.wallSeconds = std::chrono::duration<double>(end - start).count();
    if (tracer != nullptr) {
        r.traceEvents = tracer->eventCount();
        if (!trace_path.empty()) {
            auto w0 = std::chrono::steady_clock::now();
            tracer->writeChromeTrace(trace_path);
            r.writeSeconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - w0)
                                 .count();
        }
    }
    return r;
}

/** Min-of-kReps wall per config, with the three configs INTERLEAVED
 *  round-robin rather than run in blocks: the overhead ratio is then
 *  immune to machine-wide drift across the bench's lifetime (CPU
 *  steal, thermal, page cache), which on small boxes dwarfs the
 *  effect being measured. Deterministic fields are asserted identical
 *  across repeats; the export is timed min-of-kReps too. */
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
            ASTRA_ASSERT(r.simTimeNs == c.out->simTimeNs &&
                             r.events == c.out->events &&
                             r.traceEvents == c.out->traceEvents,
                         "nondeterministic across repeats");
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
        "    \"hier_allreduce_256_off\": {\"sim_time_ns\": %.3f, "
        "\"events\": %llu, \"wall_seconds\": %.6f},\n",
        off.simTimeNs,
        static_cast<unsigned long long>(off.events),
        off.wallSeconds);
    out += detail::formatV(
        "    \"hier_allreduce_256_spans\": {\"sim_time_ns\": %.3f, "
        "\"events\": %llu, \"trace_events\": %llu, \"identical\": %s, "
        "\"wall_seconds\": %.6f, \"overhead_frac\": %.6f},\n",
        spans.simTimeNs, static_cast<unsigned long long>(spans.events),
        static_cast<unsigned long long>(spans.traceEvents),
        spans.simTimeNs == off.simTimeNs && spans.events == off.events
            ? "true"
            : "false",
        spans.wallSeconds, spans_over);
    out += detail::formatV(
        "    \"hier_allreduce_256_full\": {\"sim_time_ns\": %.3f, "
        "\"events\": %llu, \"trace_events\": %llu, \"identical\": %s, "
        "\"wall_seconds\": %.6f, \"overhead_frac\": %.6f, "
        "\"trace_write_seconds\": %.6f}\n",
        full.simTimeNs, static_cast<unsigned long long>(full.events),
        static_cast<unsigned long long>(full.traceEvents),
        full.simTimeNs == off.simTimeNs && full.events == off.events
            ? "true"
            : "false",
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

    std::printf("%-8s %12.3f ms sim  %9llu events  %8.4f s wall\n",
                "off", off.simTimeNs / kMs,
                static_cast<unsigned long long>(off.events),
                off.wallSeconds);
    std::printf("%-8s %12.3f ms sim  %9llu events  %8.4f s wall  "
                "+%5.1f%%  %8llu trace events\n",
                "spans", spans.simTimeNs / kMs,
                static_cast<unsigned long long>(spans.events),
                spans.wallSeconds, 100.0 * spans_over,
                static_cast<unsigned long long>(spans.traceEvents));
    std::printf("%-8s %12.3f ms sim  %9llu events  %8.4f s wall  "
                "+%5.1f%%  %8llu trace events  "
                "(export %.4f s, separate)\n",
                "full", full.simTimeNs / kMs,
                static_cast<unsigned long long>(full.events),
                full.wallSeconds, 100.0 * full_over,
                static_cast<unsigned long long>(full.traceEvents),
                full.writeSeconds);

    // Contracts (docs/trace.md), enforced here so a drift fails
    // bench.sh --check loudly.
    for (const RunResult *r : {&spans, &full}) {
        if (r->simTimeNs != off.simTimeNs || r->events != off.events) {
            std::printf("\nFAIL: traced run diverged from untraced run "
                        "(%.3f/%llu vs %.3f/%llu)\n",
                        r->simTimeNs,
                        static_cast<unsigned long long>(r->events),
                        off.simTimeNs,
                        static_cast<unsigned long long>(off.events));
            return 1;
        }
    }
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
