/**
 * @file
 * Flow-level vs packet-level backend: accuracy and simulation speed
 * on contention-heavy scenarios (docs/network.md). Emits
 * BENCH_flow.json via scripts/bench.sh so the speed side of the
 * fidelity/speed trade-off is tracked across PRs.
 *
 * Scenarios (defined in bench_util.h):
 *  - incast_1024: 1023 senders -> 1 receiver through one 1024-port
 *    switch, 1 MB each — the headline congestion case. The packet
 *    model FIFO-serializes ~260k packets over the receiver's
 *    down-link; the flow model resolves the same contention with ONE
 *    max-min solve (every flow gets bw/1023) and ~3k events.
 *  - alltoall_64: uniform 64-NPU all-to-all (4032 flows, 256 KB
 *    each) on the same switch — a denser solver workload where every
 *    up-link and every down-link carries 63 flows.
 *  - hier_allreduce_256: staggered chunked hierarchical All-Reduces
 *    on Ring(8) x Switch(32) — the incremental-solver showcase: most
 *    dirty batches touch a small connected component of the active
 *    flows instead of re-rating everything.
 *
 * Both backends expand the identical link graph, so the packet
 * backend's store-and-forward result is the accuracy reference and
 * the reported gap is purely the fluid approximation. The simulated
 * times, event counts and solver counters are pinned by the
 * `FlowVsPacket` tests (tests/flow/test_flow_network.cc).
 */
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "common/units.h"
#include "event/event_queue.h"
#include "network/detailed/packet_network.h"
#include "network/flow/flow_network.h"

using namespace astra;
using namespace astra::bench;

namespace {

struct RunResult
{
    TimeNs simTimeNs = 0.0;
    double wallSeconds = 0.0;
    uint64_t events = 0;
};

struct Scenario
{
    std::string name;
    RunResult flow;
    RunResult packet;
    FlowNetwork::SolverStats solver; //!< flow-backend work counters.

    double
    accuracyGap() const
    {
        return packet.simTimeNs > 0.0
                   ? std::abs(flow.simTimeNs - packet.simTimeNs) /
                         packet.simTimeNs
                   : 0.0;
    }

    double
    speedup() const
    {
        return flow.wallSeconds > 0.0
                   ? packet.wallSeconds / flow.wallSeconds
                   : 0.0;
    }
};

RunResult
resultOf(EventQueue &eq, double wall_seconds)
{
    return {eq.now(), wall_seconds, eq.executedEvents()};
}

Scenario
benchTransfers(const std::string &name, const TransferScenario &sc)
{
    Scenario s;
    s.name = name;
    {
        EventQueue eq;
        FlowNetwork net(eq, sc.topo);
        s.flow = resultOf(eq, runTransfers(net, sc.transfers));
        s.solver = net.solverStats();
    }
    {
        EventQueue eq;
        PacketNetwork net(eq, sc.topo, 4096.0);
        s.packet = resultOf(eq, runTransfers(net, sc.transfers));
    }
    return s;
}

Scenario
benchHierAllReduce256()
{
    Scenario s;
    s.name = "hier_allreduce_256";
    {
        HierAllreduce256 run(NetworkBackendKind::Flow);
        s.flow = resultOf(run.eq, run.run());
        s.solver = static_cast<FlowNetwork &>(*run.net).solverStats();
    }
    {
        HierAllreduce256 run(NetworkBackendKind::Packet);
        s.packet = resultOf(run.eq, run.run());
    }
    return s;
}

std::string
jsonReport(const std::vector<Scenario> &scenarios)
{
    std::string out = "{\n  \"bench\": \"flow_vs_packet\",\n"
                      "  \"scenarios\": {\n";
    for (size_t i = 0; i < scenarios.size(); ++i) {
        const Scenario &s = scenarios[i];
        out += detail::formatV(
            "    \"%s\": {\n"
            "      \"flow\": {\"wall_seconds\": %.6f},\n"
            "      \"packet\": {\"wall_seconds\": %.6f},\n"
            "      \"accuracy_gap\": %.6f,\n"
            "      \"speedup\": %.1f\n"
            "    }%s\n",
            s.name.c_str(), s.flow.wallSeconds, s.packet.wallSeconds,
            s.accuracyGap(), s.speedup(),
            i + 1 < scenarios.size() ? "," : "");
    }
    out += "  }\n}\n";
    return out;
}

int
runBench(const CommandLine &cl)
{

    std::printf("flow-level vs packet-level backend "
                "(accuracy / simulation speed)\n\n");
    std::vector<Scenario> scenarios;
    scenarios.push_back(benchTransfers("incast_1024", incast1024()));
    scenarios.push_back(benchTransfers("alltoall_64", allToAll64()));
    scenarios.push_back(benchHierAllReduce256());

    for (const Scenario &s : scenarios) {
        std::printf("%-18s flow   %10.3f ms sim  %8.4f s wall  "
                    "%8llu events\n",
                    s.name.c_str(), s.flow.simTimeNs / kMs,
                    s.flow.wallSeconds,
                    static_cast<unsigned long long>(s.flow.events));
        std::printf("%-18s packet %10.3f ms sim  %8.4f s wall  "
                    "%8llu events\n",
                    "", s.packet.simTimeNs / kMs, s.packet.wallSeconds,
                    static_cast<unsigned long long>(s.packet.events));
        std::printf("%-18s gap %.2f%%  speedup %.1fx  "
                    "solves %llu  avg component %.1f%%\n\n",
                    "", 100.0 * s.accuracyGap(), s.speedup(),
                    static_cast<unsigned long long>(s.solver.solves),
                    100.0 * s.solver.avgComponentFrac());
    }

    if (cl.has("json"))
        OutputFile::write(cl.getString("json", ""), "bench JSON",
                          jsonReport(scenarios));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(argc, argv, {.groups = {{bench::kJsonFlag}}}, runBench);
}
