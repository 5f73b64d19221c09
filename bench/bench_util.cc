#include "bench_util.h"

#include <chrono>

#include "network/detailed/packet_network.h"

namespace astra {
namespace bench {

CollectiveResult
runCollectiveOn(const Topology &topo, NetworkBackendKind backend,
                const CollectiveRequest &req, Bytes packet_bytes)
{
    EventQueue eq;
    std::unique_ptr<NetworkApi> net;
    if (backend == NetworkBackendKind::Packet)
        net = std::make_unique<PacketNetwork>(eq, topo, packet_bytes);
    else
        net = makeNetwork(backend, eq, topo);
    CollectiveEngine engine(*net);

    auto start = std::chrono::steady_clock::now();
    CollectiveRunResult run = runCollective(engine, req);

    CollectiveResult result;
    result.time = run.finish;
    result.wallSeconds = wallSince(start);
    result.events = eq.executedEvents();
    result.sentPerDim = run.sentPerDim;
    return result;
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
