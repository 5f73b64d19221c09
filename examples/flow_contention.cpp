/**
 * @file
 * Backend fidelity tour: run the same congestion-heavy scenario — a
 * switch incast over a Ring x Switch hierarchy, where half the
 * senders' dimension-ordered paths cross an inner-ring hop before
 * the shared switch — on all three network backends and compare
 * completion times, per-dimension busy time, and hot-link
 * utilization (docs/network.md).
 *
 * The analytical backend only serializes per-source transmit ports,
 * so it reports the incast as fast as a single message; the flow and
 * packet backends both resolve the shared down-link and agree — the
 * flow backend with ~two orders of magnitude fewer events.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/units.h"
#include "event/event_queue.h"
#include "network/analytical.h"
#include "network/detailed/packet_network.h"
#include "network/flow/flow_network.h"

using namespace astra;
using namespace astra::literals;

namespace {

struct Outcome
{
    TimeNs finish = 0.0;
    uint64_t events = 0;
    NetworkStats stats;
};

Outcome
runScenario(NetworkApi &net, EventQueue &eq, int npus, Bytes bytes)
{
    // Incast: every other NPU sends to NPU 0 with dimension-ordered
    // routing, so senders at the far ring coordinate also load the
    // inner-ring links on their way to the switch (both dimensions
    // show up in the busy-time breakdown).
    int done = 0;
    for (NpuId src = 1; src < npus; ++src) {
        SendHandlers h;
        h.onDelivered = [&done] { ++done; };
        net.simSend(src, 0, bytes, kAutoRoute, kNoTag, std::move(h));
    }
    eq.run();
    Outcome out;
    out.finish = eq.now();
    out.events = eq.executedEvents();
    out.stats = net.stats();
    return out;
}

void
report(const char *name, const Outcome &out, const Topology &topo)
{
    std::printf("%-12s finish %10.3f ms   %9llu events\n", name,
                out.finish / kMs,
                static_cast<unsigned long long>(out.events));
    for (int d = 0; d < topo.numDims(); ++d) {
        int links = out.stats.linksPerDim[static_cast<size_t>(d)];
        double busy =
            out.stats.busyTimePerDim[static_cast<size_t>(d)];
        double mean_util =
            links > 0 && out.finish > 0.0
                ? busy / (double(links) * out.finish)
                : 0.0;
        std::printf("             dim %d (%s): busy %.3f ms over %d "
                    "links, mean util %.1f%%\n",
                    d, blockShortName(topo.dim(d).type), busy / kMs,
                    links, 100.0 * mean_util);
    }
    std::printf("             max link utilization %.1f%%\n\n",
                out.finish > 0.0
                    ? 100.0 * out.stats.maxLinkBusyNs / out.finish
                    : 0.0);
}

int
run(const CommandLine &args)
{
    int npus = static_cast<int>(args.getInt("npus", 64));
    double mb = args.getDouble("mb", 1.0);

    Topology topo({{BlockType::Ring, 2, 250.0, 500.0},
                   {BlockType::Switch, npus, 100.0, 500.0}});
    Bytes bytes = mb * kMB;
    std::printf("topology %s, %d senders x %.1f MB incast\n\n",
                topo.notation().c_str(), npus - 1, mb);

    {
        EventQueue eq;
        AnalyticalNetwork net(eq, topo);
        report("analytical",
               runScenario(net, eq, npus, bytes), topo);
    }
    {
        EventQueue eq;
        FlowNetwork net(eq, topo);
        report("flow", runScenario(net, eq, npus, bytes), topo);
    }
    {
        EventQueue eq;
        PacketNetwork net(eq, topo);
        report("packet", runScenario(net, eq, npus, bytes), topo);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagGroup flags = {
        {"npus", FlagKind::Value, "switch size; npus-1 senders (default 64)"},
        {"mb", FlagKind::Value, "message size in MB (default 1)"}};
    return runCli(argc, argv, {.groups = {flags}}, run);
}
