/**
 * @file
 * Telemetry overhead gate (docs/observability.md, "zero-overhead
 * contract"). Emits BENCH_obs.json via scripts/bench.sh so the cost
 * of the observability layer is tracked across PRs.
 *
 * Two sections (scenarios defined in bench_util.h):
 *
 *  - **Heartbeat overhead** on hier_allreduce_256 (flow backend), run
 *    monitored vs unmonitored with the default event cadence and the
 *    full provider set a real simulation attaches (progress, active
 *    flows, solver counter, footprint sources). The monitored run's
 *    wall time may exceed the unmonitored one's by at most 5%
 *    (min-of-N interleaved wall samples on both sides — the monitor
 *    costs one countdown decrement per event plus a rare poll, far
 *    below the tracer's budget); the binary exits non-zero past that
 *    budget.
 *
 *  - **Memory accounting at scale**: flow_allreduce_4096 through the
 *    full Simulator stack, timed, with the process peak RSS for the
 *    leak-shaped regression gate.
 *
 * The simulated results — bit-identity under monitoring, the
 * heartbeat counts, and the scale point's deterministic footprint
 * rollup — are pinned by the `Telemetry.*Committed*` tests
 * (tests/telemetry/test_telemetry.cc).
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "event/event_queue.h"
#include "network/flow/flow_network.h"
#include "telemetry/telemetry.h"

using namespace astra;

namespace {

constexpr int kReps = 9; //!< min-wall over this many runs per config.

/** Wall seconds of one hier_allreduce_256 run on the flow backend. */
double
runOnce(bool monitored)
{
    bench::HierAllreduce256 run(NetworkBackendKind::Flow);
    const int total = run.remaining;

    // Mirror the Simulator's wiring (astra/simulator.cc): the
    // measured overhead is what a monitored simulation actually pays
    // — the per-event countdown decrement plus the rare poll reading
    // every provider.
    std::unique_ptr<telemetry::Monitor> monitor;
    if (monitored) {
        auto &net = static_cast<FlowNetwork &>(*run.net);
        telemetry::TelemetryConfig cfg;
        cfg.intervalEvents = telemetry::kDefaultIntervalEvents;
        monitor = std::make_unique<telemetry::Monitor>(cfg);
        monitor->setProgress([&run, total] {
            return telemetry::Progress{size_t(total - run.remaining),
                                       size_t(total)};
        });
        monitor->setActive([&net] { return net.activeCount(); });
        monitor->setSolves([&net] { return net.solveCount(); });
        monitor->addFootprint("event_queue",
                              [&run] { return run.eq.bytesInUse(); });
        monitor->addFootprint("network",
                              [&net] { return net.bytesInUse(); });
        monitor->addFootprint(
            "collectives", [&run] { return run.engine.bytesInUse(); });
        run.eq.setMonitor(monitor.get());
    }

    double wall = run.run();
    if (monitor != nullptr) {
        monitor->finish(run.eq.now(), run.eq.executedEvents(),
                        run.eq.pending());
        run.eq.setMonitor(nullptr);
    }
    return wall;
}

/** Min-of-kReps wall per config, INTERLEAVED round-robin (see
 *  bench_trace_overhead: immunity to machine-wide drift). */
void
runInterleaved(double &off, double &on)
{
    for (int i = 0; i < kReps; ++i) {
        for (bool monitored : {false, true}) {
            double wall = runOnce(monitored);
            double &out = monitored ? on : off;
            out = i == 0 ? wall : std::min(out, wall);
        }
    }
}

std::string
jsonReport(double off, double on, double overhead, double scale_wall,
           size_t peak_rss)
{
    std::string out = "{\n  \"bench\": \"telemetry_overhead\",\n"
                      "  \"scenarios\": {\n";
    out += detail::formatV(
        "    \"hier_allreduce_256_off\": {\"wall_seconds\": %.6f},\n",
        off);
    out += detail::formatV(
        "    \"hier_allreduce_256_heartbeat\": {\"wall_seconds\": %.6f, "
        "\"overhead_frac\": %.6f},\n",
        on, overhead);
    out += detail::formatV(
        "    \"flow_allreduce_4096\": {\"peak_rss_bytes\": %zu, "
        "\"wall_seconds\": %.6f}\n",
        peak_rss, scale_wall);
    out += "  }\n}\n";
    return out;
}

int
runBench(const CommandLine &cl)
{

    std::printf("telemetry overhead on hier_allreduce_256 "
                "(flow backend, min of %d runs)\n\n",
                kReps);
    double off = 0.0, on = 0.0;
    runInterleaved(off, on);
    double overhead = off > 0.0 ? (on - off) / off : 0.0;

    std::printf("%-10s %8.4f s wall\n", "off", off);
    std::printf("%-10s %8.4f s wall  +%5.2f%%\n", "heartbeat", on,
                100.0 * overhead);

    std::printf("\nmemory accounting at scale (flow backend, "
                "Ring(8) x Switch(512) = 4096 NPUs)\n\n");
    double scale_wall = 0.0;
    Report scale = bench::runFlowAllreduce4096(&scale_wall);
    size_t peak_rss = telemetry::peakRssBytes();
    std::printf("4096-NPU all-reduce: %.4f s wall\n", scale_wall);
    std::printf("  footprint %.2f MiB total, %.0f bytes/flow, "
                "%.0f bytes/NPU, peak RSS %.1f MiB\n",
                double(scale.peakFootprintBytes) / (1024.0 * 1024.0),
                scale.bytesPerFlow, scale.bytesPerNpu,
                double(peak_rss) / (1024.0 * 1024.0));

    // The overhead budget (docs/observability.md), enforced here so a
    // drift fails bench.sh --check loudly.
    if (overhead > 0.05) {
        std::printf("\nFAIL: heartbeat overhead %.2f%% exceeds the "
                    "5%% budget\n",
                    100.0 * overhead);
        return 1;
    }

    if (cl.has("json"))
        OutputFile::write(cl.getString("json", ""), "bench JSON",
                          jsonReport(off, on, overhead, scale_wall,
                                     peak_rss));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(argc, argv, {.groups = {{bench::kJsonFlag}}}, runBench);
}
