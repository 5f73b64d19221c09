/**
 * @file
 * Experiment E9 — chunking ablation (the pipelining design choice in
 * the multi-rail executor, DESIGN.md S8).
 *
 * On a multi-dimensional topology, splitting a collective into chunks
 * lets later-dimension phases of early chunks overlap early-dimension
 * phases of later chunks. One chunk degenerates to the sequential
 * phase sum; many chunks approach the bottleneck dimension's
 * serialization bound (the Table IV regime). Past that point extra
 * chunks only add per-chunk latency.
 */
#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "collective/estimate.h"
#include "common/table.h"

using namespace astra;
using namespace astra::bench;
using namespace astra::literals;

int
main()
{
    setLogLevel(LogLevel::Warn);
    std::printf("E9 / chunking ablation: 1 GB All-Reduce on Conv-4D "
                "(2_8_8_4)\n\n");

    Topology topo = presets::conv4D();
    CollectiveRequest probe =
        CollectiveRequest::overDims(CollectiveType::AllReduce, 1_GB);
    probe.chunks = 64;
    CollectiveEstimate est = estimateCollective(topo, probe);
    std::printf("sequential phase sum: %.0f us; bottleneck-dimension "
                "bound: %.0f us\n\n",
                est.sequential / kUs, est.bottleneck / kUs);

    Table table({"chunks", "time (us)", "vs 1 chunk", "vs bottleneck"});
    double one_chunk = 0.0;
    for (int chunks : {1, 2, 4, 8, 16, 32, 64, 128}) {
        CollectiveRequest req = CollectiveRequest::overDims(
            CollectiveType::AllReduce, 1_GB);
        req.chunks = chunks;
        CollectiveResult res =
            runCollectiveOn(topo, NetworkBackendKind::Analytical, req);
        if (chunks == 1)
            one_chunk = res.time;
        table.addRow({std::to_string(chunks),
                      Table::num(res.time / kUs),
                      Table::num(one_chunk / res.time, 2) + "x",
                      Table::num(res.time / est.bottleneck, 2) + "x"});
    }
    table.print();
    std::printf("\nDiminishing returns once the bottleneck dimension "
                "saturates; the evaluation uses 8-16 chunks.\n");
    return 0;
}
