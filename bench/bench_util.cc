#include "bench_util.h"

#include <chrono>

#include "astra/simulator.h"
#include "common/logging.h"
#include "network/detailed/packet_network.h"
#include "telemetry/telemetry.h"
#include "workload/builders.h"

namespace astra {
namespace bench {

using namespace astra::literals;

CollectiveResult
runTorusAllReduce(int k, NetworkBackendKind backend, Bytes packet_bytes)
{
    Topology topo({{BlockType::Ring, k, 56.0, 500.0},
                   {BlockType::Ring, k, 56.0, 500.0},
                   {BlockType::Ring, k, 56.0, 500.0}});
    EventQueue eq;
    std::unique_ptr<NetworkApi> net;
    if (backend == NetworkBackendKind::Packet)
        net = std::make_unique<PacketNetwork>(eq, topo, packet_bytes);
    else
        net = makeNetwork(backend, eq, topo);
    CollectiveEngine engine(*net);
    CollectiveRequest req =
        CollectiveRequest::overDims(CollectiveType::AllReduce, 1_MB);
    req.chunks = 4;
    TimeNs finish = runCollective(engine, req).finish;
    return {finish, eq.executedEvents()};
}

TransferScenario
incast1024()
{
    TransferScenario s{Topology({{BlockType::Switch, 1024, 100.0, 500.0}}),
                       {}};
    for (NpuId src = 1; src < 1024; ++src)
        s.transfers.push_back({src, 0, 1_MB});
    return s;
}

TransferScenario
allToAll64()
{
    TransferScenario s{Topology({{BlockType::Switch, 64, 100.0, 500.0}}),
                       {}};
    for (int r = 1; r < 64; ++r)
        for (NpuId src = 0; src < 64; ++src)
            s.transfers.push_back({src, (src + r) % 64, 256.0 * kKB});
    return s;
}

double
runTransfers(NetworkApi &net, const std::vector<Transfer> &transfers)
{
    size_t done = 0;
    auto start = std::chrono::steady_clock::now();
    for (const Transfer &t : transfers) {
        SendHandlers h;
        h.onDelivered = [&done] { ++done; };
        net.simSend(t.src, t.dst, t.bytes, 0, kNoTag, std::move(h));
    }
    net.eventQueue().run();
    double wall = wallSince(start);
    ASTRA_ASSERT(done == transfers.size(), "transfers lost");
    return wall;
}

HierAllreduce256::HierAllreduce256(NetworkBackendKind backend)
    : topo({{BlockType::Ring, 8, 200.0, 300.0},
            {BlockType::Switch, 32, 50.0, 500.0}}),
      net(makeNetwork(backend, eq, topo)), engine(*net),
      remaining(topo.npus() * kRounds)
{
}

double
HierAllreduce256::run()
{
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.bytes = 2_MB;
    req.chunks = 4;
    const TimeNs kStagger = 12000.0;

    auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < kRounds; ++r) {
        eq.schedule(r * kStagger, [this, &req, r] {
            for (NpuId npu = 0; npu < topo.npus(); ++npu)
                engine.join(0xBE5C0000ULL + static_cast<uint64_t>(r),
                            npu, req, [this] { --remaining; });
        });
    }
    eq.run();
    double wall = wallSince(start);
    ASTRA_ASSERT(remaining == 0, "collectives lost");
    return wall;
}

Report
runFlowAllreduce4096(double *wallSeconds)
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
    if (wallSeconds != nullptr)
        *wallSeconds = wallSince(start);
    return report;
}

double
wallSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace bench
} // namespace astra
