/**
 * @file
 * Telemetry overhead gate (docs/observability.md, "zero-overhead
 * contract"). Emits BENCH_obs.json via scripts/bench.sh so the cost
 * of the observability layer is tracked across PRs.
 *
 * Two sections:
 *
 *  - **Heartbeat overhead** on hier_allreduce_256 (the staggered
 *    hierarchical All-Reduce from bench_flow_vs_packet, flow
 *    backend), run monitored vs unmonitored with the default event
 *    cadence and the full provider set a real simulation attaches
 *    (progress, active flows, solver counter, footprint sources).
 *    The binary enforces both halves of the contract and exits
 *    non-zero on violation, so a drift fails bench.sh --check loudly:
 *    simulated time and event count must be IDENTICAL, and the
 *    monitored run's wall time may exceed the unmonitored one's by at
 *    most 5% (min-of-N interleaved wall samples on both sides — the
 *    monitor costs one countdown decrement per event plus a rare
 *    poll, far below the tracer's budget).
 *
 *  - **Memory accounting at scale**: one 4096-NPU hierarchical
 *    All-Reduce on the flow backend through the full Simulator stack,
 *    reporting the deterministic footprint rollup (bytes total, per
 *    flow, per NPU — the capacity-based accounting sweeps rank by)
 *    plus the process peak RSS for the leak-shaped regression gate.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.h"
#include "astra/simulator.h"
#include "collective/engine.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "common/units.h"
#include "event/event_queue.h"
#include "network/flow/flow_network.h"
#include "telemetry/telemetry.h"
#include "workload/builders.h"

using namespace astra;
using namespace astra::literals;

namespace {

constexpr int kReps = 9; //!< min-wall over this many runs per config.

struct RunResult
{
    TimeNs simTimeNs = 0.0;
    uint64_t events = 0;
    double wallSeconds = 0.0; //!< min over kReps.
    uint64_t heartbeats = 0;
};

/** hier_allreduce_256 (bench_flow_vs_packet / bench_trace_overhead):
 *  four staggered chunked hierarchical All-Reduces on
 *  Ring(8) x Switch(32), flow backend. */
RunResult
runOnce(bool monitored)
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

    int total = topo.npus() * kRounds;
    int remaining = total;

    // Mirror the Simulator's wiring (astra/simulator.cc): the
    // measured overhead is what a monitored simulation actually pays
    // — the per-event countdown decrement plus the rare poll reading
    // every provider.
    std::unique_ptr<telemetry::Monitor> monitor;
    if (monitored) {
        telemetry::TelemetryConfig cfg;
        cfg.intervalEvents = telemetry::kDefaultIntervalEvents;
        monitor = std::make_unique<telemetry::Monitor>(cfg);
        monitor->setProgress([&remaining, total] {
            return telemetry::Progress{size_t(total - remaining),
                                       size_t(total)};
        });
        monitor->setActive([&net] { return net.activeCount(); });
        monitor->setSolves([&net] { return net.solveCount(); });
        monitor->addFootprint("event_queue",
                              [&eq] { return eq.bytesInUse(); });
        monitor->addFootprint("network",
                              [&net] { return net.bytesInUse(); });
        monitor->addFootprint("collectives",
                              [&engine] { return engine.bytesInUse(); });
        eq.setMonitor(monitor.get());
    }

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
    if (monitor != nullptr) {
        monitor->finish(eq.now(), eq.executedEvents(), eq.pending());
        eq.setMonitor(nullptr);
        r.heartbeats = monitor->heartbeatCount();
    }
    return r;
}

/** Min-of-kReps wall per config, INTERLEAVED round-robin (see
 *  bench_trace_overhead: immunity to machine-wide drift). */
void
runInterleaved(RunResult &off, RunResult &on)
{
    for (int i = 0; i < kReps; ++i) {
        for (bool monitored : {false, true}) {
            RunResult r = runOnce(monitored);
            RunResult *out = monitored ? &on : &off;
            if (i == 0) {
                *out = r;
                continue;
            }
            ASTRA_ASSERT(r.simTimeNs == out->simTimeNs &&
                             r.events == out->events &&
                             r.heartbeats == out->heartbeats,
                         "nondeterministic across repeats");
            out->wallSeconds = std::min(out->wallSeconds, r.wallSeconds);
        }
    }
}

struct ScaleResult
{
    TimeNs simTimeNs = 0.0;
    uint64_t events = 0;
    double wallSeconds = 0.0;
    size_t peakFootprintBytes = 0;
    double bytesPerFlow = 0.0;
    double bytesPerNpu = 0.0;
    uint64_t heartbeats = 0;
    size_t peakRssBytes = 0;
};

/** 4096-NPU hierarchical All-Reduce through the full Simulator stack
 *  on the flow backend, monitored at the default event cadence. */
ScaleResult
runScalePoint()
{
    Topology topo({{BlockType::Ring, 8, 200.0, 300.0},
                   {BlockType::Switch, 512, 50.0, 500.0}});
    SimulatorConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    cfg.telemetry.intervalEvents = telemetry::kDefaultIntervalEvents;
    Simulator sim(topo, cfg);
    Workload wl =
        buildSingleCollective(topo, CollectiveType::AllReduce, 1_MB);
    auto start = std::chrono::steady_clock::now();
    Report report = sim.run(wl);
    auto end = std::chrono::steady_clock::now();

    ScaleResult s;
    s.simTimeNs = report.totalTime;
    s.events = report.events;
    s.wallSeconds = std::chrono::duration<double>(end - start).count();
    s.peakFootprintBytes = report.peakFootprintBytes;
    s.bytesPerFlow = report.bytesPerFlow;
    s.bytesPerNpu = report.bytesPerNpu;
    s.heartbeats = report.telemetryHeartbeats;
    s.peakRssBytes = telemetry::peakRssBytes();
    return s;
}

std::string
jsonReport(const RunResult &off, const RunResult &on,
           double overhead, const ScaleResult &scale)
{
    std::string out = "{\n  \"bench\": \"telemetry_overhead\",\n"
                      "  \"scenarios\": {\n";
    out += detail::formatV(
        "    \"hier_allreduce_256_off\": {\"sim_time_ns\": "
        "%.3f, \"events\": %llu, \"wall_seconds\": %.6f},\n",
        off.simTimeNs,
        static_cast<unsigned long long>(off.events),
        off.wallSeconds);
    out += detail::formatV(
        "    \"hier_allreduce_256_heartbeat\": {\"sim_time_ns\": %.3f, "
        "\"events\": %llu, \"telemetry_heartbeats\": %llu, "
        "\"identical\": %s, \"wall_seconds\": %.6f, "
        "\"overhead_frac\": %.6f},\n",
        on.simTimeNs, static_cast<unsigned long long>(on.events),
        static_cast<unsigned long long>(on.heartbeats),
        on.simTimeNs == off.simTimeNs && on.events == off.events
            ? "true"
            : "false",
        on.wallSeconds, overhead);
    out += detail::formatV(
        "    \"flow_allreduce_4096\": {\"sim_time_ns\": %.3f, "
        "\"events\": %llu, \"peak_footprint_bytes\": %zu, "
        "\"bytes_per_flow\": %.3f, \"bytes_per_npu\": %.3f, "
        "\"telemetry_heartbeats\": %llu, \"peak_rss_bytes\": %zu, "
        "\"wall_seconds\": %.6f}\n",
        scale.simTimeNs, static_cast<unsigned long long>(scale.events),
        scale.peakFootprintBytes, scale.bytesPerFlow, scale.bytesPerNpu,
        static_cast<unsigned long long>(scale.heartbeats),
        scale.peakRssBytes, scale.wallSeconds);
    out += "  }\n}\n";
    return out;
}

int
runBench(const CommandLine &cl)
{

    std::printf("telemetry overhead on hier_allreduce_256 "
                "(flow backend, min of %d runs)\n\n",
                kReps);
    RunResult off, on;
    runInterleaved(off, on);
    double overhead =
        off.wallSeconds > 0.0
            ? (on.wallSeconds - off.wallSeconds) / off.wallSeconds
            : 0.0;

    std::printf("%-10s %12.3f ms sim  %9llu events  %8.4f s wall\n",
                "off", off.simTimeNs / kMs,
                static_cast<unsigned long long>(off.events),
                off.wallSeconds);
    std::printf("%-10s %12.3f ms sim  %9llu events  %8.4f s wall  "
                "+%5.2f%%  %llu heartbeats\n",
                "heartbeat", on.simTimeNs / kMs,
                static_cast<unsigned long long>(on.events),
                on.wallSeconds, 100.0 * overhead,
                static_cast<unsigned long long>(on.heartbeats));

    std::printf("\nmemory accounting at scale (flow backend, "
                "Ring(8) x Switch(512) = 4096 NPUs)\n\n");
    ScaleResult scale = runScalePoint();
    std::printf("4096-NPU all-reduce: %.3f ms sim, %llu events, "
                "%.4f s wall\n",
                scale.simTimeNs / kMs,
                static_cast<unsigned long long>(scale.events),
                scale.wallSeconds);
    std::printf("  footprint %.2f MiB total, %.0f bytes/flow, "
                "%.0f bytes/NPU, peak RSS %.1f MiB, %llu heartbeats\n",
                double(scale.peakFootprintBytes) / (1024.0 * 1024.0),
                scale.bytesPerFlow, scale.bytesPerNpu,
                double(scale.peakRssBytes) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(scale.heartbeats));

    // Contracts (docs/observability.md), enforced here so a drift
    // fails bench.sh --check loudly.
    if (on.simTimeNs != off.simTimeNs || on.events != off.events) {
        std::printf("\nFAIL: monitored run diverged from unmonitored "
                    "run (%.3f/%llu vs %.3f/%llu)\n",
                    on.simTimeNs,
                    static_cast<unsigned long long>(on.events),
                    off.simTimeNs,
                    static_cast<unsigned long long>(off.events));
        return 1;
    }
    if (overhead > 0.05) {
        std::printf("\nFAIL: heartbeat overhead %.2f%% exceeds the "
                    "5%% budget\n",
                    100.0 * overhead);
        return 1;
    }
    if (scale.peakFootprintBytes == 0 || scale.bytesPerFlow <= 0.0) {
        std::printf("\nFAIL: scale point reported no footprint\n");
        return 1;
    }

    if (cl.has("json"))
        OutputFile::write(cl.getString("json", ""), "bench JSON",
                          jsonReport(off, on, overhead, scale));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(argc, argv, {.groups = {{bench::kJsonFlag}}}, runBench);
}
