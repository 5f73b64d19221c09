/**
 * @file
 * Design-space exploration over the topology notation (§IV-B/C):
 * takes any multi-dimensional topology string and sweeps collective
 * sizes, printing simulated time, the closed-form estimate, and the
 * achieved effective bandwidth.
 */
#include <cstdio>

#include "collective/engine.h"
#include "collective/estimate.h"
#include "common/cli.h"
#include "common/table.h"
#include "common/units.h"
#include "network/analytical.h"
#include "topology/notation.h"

using namespace astra;
using namespace astra::literals;

namespace {

int
run(const CommandLine &cl)
{
    Topology topo =
        parseTopology(cl.getString("topo", "R(4,250)_SW(4,50)"));
    CollectiveType coll =
        parseCollectiveType(cl.getString("coll", "all_reduce"));
    int chunks = static_cast<int>(cl.getInt("chunks", 16));
    SchedPolicy policy = cl.getString("policy", "baseline") == "themis"
                             ? SchedPolicy::Themis
                             : SchedPolicy::Baseline;

    std::printf("topology %s: %d NPUs, %.0f GB/s aggregate per NPU\n",
                topo.notation().c_str(), topo.npus(),
                topo.totalBandwidthPerNpu());

    Table table({"size", "simulated (us)", "estimate (us)",
                 "algbw (GB/s)", "busbw (GB/s)"});
    for (Bytes size : {1_MB, 16_MB, 64_MB, 256_MB, 1_GB}) {
        EventQueue eq;
        AnalyticalNetwork net(eq, topo);
        CollectiveEngine engine(net);
        CollectiveRequest req;
        req.type = coll;
        req.bytes = size;
        req.chunks = chunks;
        req.policy = policy;
        TimeNs t = runCollective(engine, req).finish;
        CollectiveEstimate est = estimateCollective(topo, req);
        // NCCL-style metrics: algorithmic and bus bandwidth.
        double algbw = size / t;
        double busbw =
            algbw * 2.0 * (topo.npus() - 1) / double(topo.npus());
        char label[32];
        std::snprintf(label, sizeof(label), "%.0f MB", size / 1_MB);
        table.addRow({label, Table::num(t / kUs), Table::num(est.time / kUs),
                      Table::num(algbw), Table::num(busbw)});
    }
    table.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagGroup flags = {
        {"topo", FlagKind::Value, "topology (default R(4,250)_SW(4,50))"},
        {"coll", FlagKind::Value, "collective (default all_reduce)"},
        {"chunks", FlagKind::Value, "chunks per collective (default 16)"},
        {"policy", FlagKind::Value, "baseline | themis"}};
    return runCli(argc, argv, {.groups = {flags}}, run);
}
