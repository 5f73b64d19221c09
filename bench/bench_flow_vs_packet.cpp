/**
 * @file
 * Flow-level vs packet-level backend: accuracy and simulation speed
 * on contention-heavy scenarios (docs/network.md). Emits
 * BENCH_flow.json via scripts/bench.sh so the fidelity/speed
 * trade-off is tracked across PRs.
 *
 * Scenarios:
 *  - incast_1024: 1023 senders -> 1 receiver through one 1024-port
 *    switch, 1 MB each — the headline congestion case. The packet
 *    model FIFO-serializes ~260k packets over the receiver's
 *    down-link; the flow model resolves the same contention with ONE
 *    max-min solve (every flow gets bw/1023) and ~3k events.
 *  - alltoall_64: uniform 64-NPU all-to-all (4032 flows, 256 KB
 *    each) on the same switch — a denser solver workload where every
 *    up-link and every down-link carries 63 flows.
 *  - hier_allreduce_256: chunked hierarchical All-Reduce on
 *    Ring(8) x Switch(32) driven through the CollectiveEngine — the
 *    contention-heavy *incremental-solver* showcase: phases start and
 *    finish at different times across 32 ring groups and 8 switch
 *    groups, so most dirty batches touch a small connected component
 *    of the active flows (avg_component_frac << 1) instead of
 *    re-rating everything.
 *
 * Both backends expand the identical link graph, so the packet
 * backend's store-and-forward result is the accuracy reference and
 * the reported gap is purely the fluid approximation. The flow rows
 * also record the incremental solver's work counters (solves,
 * flows_touched_total, avg_component_frac — docs/network.md).
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "collective/engine.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "common/units.h"
#include "event/event_queue.h"
#include "network/detailed/packet_network.h"
#include "network/flow/flow_network.h"

using namespace astra;
using namespace astra::literals;

namespace {

struct RunResult
{
    TimeNs simTimeNs = 0.0;
    double wallSeconds = 0.0;
    uint64_t events = 0;
};

struct Transfer
{
    NpuId src;
    NpuId dst;
    Bytes bytes;
};

RunResult
runTransfers(NetworkApi &net, EventQueue &eq,
             const std::vector<Transfer> &transfers)
{
    size_t done = 0;
    auto start = std::chrono::steady_clock::now();
    for (const Transfer &t : transfers) {
        SendHandlers h;
        h.onDelivered = [&done] { ++done; };
        net.simSend(t.src, t.dst, t.bytes, 0, kNoTag, std::move(h));
    }
    eq.run();
    auto end = std::chrono::steady_clock::now();
    ASTRA_ASSERT(done == transfers.size(), "transfers lost");
    RunResult r;
    r.simTimeNs = eq.now();
    r.wallSeconds = std::chrono::duration<double>(end - start).count();
    r.events = eq.executedEvents();
    return r;
}

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

Scenario
runScenario(const std::string &name, const Topology &topo,
            const std::vector<Transfer> &transfers)
{
    Scenario s;
    s.name = name;
    {
        EventQueue eq;
        FlowNetwork net(eq, topo);
        s.flow = runTransfers(net, eq, transfers);
        s.solver = net.solverStats();
    }
    {
        EventQueue eq;
        PacketNetwork net(eq, topo, 4096.0);
        s.packet = runTransfers(net, eq, transfers);
    }
    return s;
}

/** `rounds` whole-topology collectives, round r joining at
 *  `r * stagger_ns` — overlapping microbatch all-reduces, the pattern
 *  a training step's backward pass produces. */
RunResult
runStaggeredCollectives(NetworkApi &net, EventQueue &eq,
                        const CollectiveRequest &req, int rounds,
                        TimeNs stagger_ns)
{
    CollectiveEngine engine(net);
    const Topology &topo = net.topology();
    int remaining = topo.npus() * rounds;
    auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
        eq.schedule(r * stagger_ns, [&engine, &topo, &req, &remaining, r] {
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
    r.wallSeconds = std::chrono::duration<double>(end - start).count();
    r.events = eq.executedEvents();
    return r;
}

Scenario
benchIncast1024()
{
    Topology topo({{BlockType::Switch, 1024, 100.0, 500.0}});
    std::vector<Transfer> transfers;
    transfers.reserve(1023);
    for (NpuId src = 1; src < 1024; ++src)
        transfers.push_back({src, 0, 1_MB});
    return runScenario("incast_1024", topo, transfers);
}

Scenario
benchHierAllReduce256()
{
    // 256 NPUs: Ring(8) scale-up islands under a 32-wide switch tier,
    // running four *staggered* chunked hierarchical All-Reduces (the
    // backward pass's overlapping microbatch pattern — a single
    // lockstep collective would keep every dirty batch global). Flows
    // start and finish continuously across 32 disjoint ring groups
    // and 8 switch instances, so most solves touch only the connected
    // component that changed — this is the incremental-solver
    // showcase the avg_component_frac counter tracks.
    Topology topo({{BlockType::Ring, 8, 200.0, 300.0},
                   {BlockType::Switch, 32, 50.0, 500.0}});
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.bytes = 2_MB;
    req.chunks = 4;
    const int kRounds = 4;
    const TimeNs kStagger = 12000.0;

    Scenario s;
    s.name = "hier_allreduce_256";
    {
        EventQueue eq;
        FlowNetwork net(eq, topo);
        s.flow = runStaggeredCollectives(net, eq, req, kRounds, kStagger);
        s.solver = net.solverStats();
    }
    {
        EventQueue eq;
        PacketNetwork net(eq, topo, 4096.0);
        s.packet =
            runStaggeredCollectives(net, eq, req, kRounds, kStagger);
    }
    return s;
}

Scenario
benchAllToAll64()
{
    Topology topo({{BlockType::Switch, 64, 100.0, 500.0}});
    std::vector<Transfer> transfers;
    transfers.reserve(64 * 63);
    // Classic rotation schedule (step r: src -> src + r), the order
    // real all-to-all implementations use so down-links are loaded
    // evenly instead of every source hammering destination 0 first.
    for (int r = 1; r < 64; ++r)
        for (NpuId src = 0; src < 64; ++src)
            transfers.push_back({src, (src + r) % 64, 256.0 * kKB});
    return runScenario("alltoall_64", topo, transfers);
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
            "      \"flow\": {\"sim_time_ns\": %.3f, \"wall_seconds\": "
            "%.6f, \"events\": %llu},\n"
            "      \"packet\": {\"sim_time_ns\": %.3f, \"wall_seconds\": "
            "%.6f, \"events\": %llu},\n"
            "      \"solver\": {\"solves\": %llu, "
            "\"flows_touched_total\": %llu, "
            "\"avg_component_frac\": %.6f},\n"
            "      \"accuracy_gap\": %.6f,\n"
            "      \"speedup\": %.1f\n"
            "    }%s\n",
            s.name.c_str(), s.flow.simTimeNs, s.flow.wallSeconds,
            static_cast<unsigned long long>(s.flow.events),
            s.packet.simTimeNs, s.packet.wallSeconds,
            static_cast<unsigned long long>(s.packet.events),
            static_cast<unsigned long long>(s.solver.solves),
            static_cast<unsigned long long>(s.solver.flowsTouched),
            s.solver.avgComponentFrac(), s.accuracyGap(), s.speedup(),
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
    scenarios.push_back(benchIncast1024());
    scenarios.push_back(benchAllToAll64());
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
