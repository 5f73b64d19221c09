/**
 * @file
 * Experiment E5 — Fig. 9(b): conventional scale-out vs wafer-scale
 * scale-up, end to end.
 *
 * Base-512 is the 2_8_8_4 wafer-baseline (dim 1 at 1000 GB/s).
 * Conv-k grows the last (NIC) dimension; W-k grows the on-chip
 * dimension. All runs use the Themis scheduler so the comparison
 * isolates the topology effect, matching the paper's setup.
 *
 * Expected shape: Conv-k keeps runtime roughly flat as NPUs grow
 * (the NIC message barely changes); W-k cuts communication time
 * substantially until the on-wafer dimension saturates.
 */
#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "common/table.h"

using namespace astra;
using namespace astra::bench;

namespace {

struct ScalePoint
{
    std::string name;
    int dim1;
    int dim4;
};

std::vector<ScalePoint>
scalePoints()
{
    return {
        {"Base-512", 2, 4},   {"Conv-1024", 2, 8},  {"Conv-2048", 2, 16},
        {"Conv-4096", 2, 32}, {"W-1024", 4, 4},     {"W-2048", 8, 4},
        {"W-4096", 16, 4},
    };
}

} // namespace

int
main()
{
    setLogLevel(LogLevel::Warn);
    std::printf("E5 / Fig. 9(b): scale-out (Conv-k) vs wafer scale-up "
                "(W-k)\n\n");

    for (Fig9Workload w : fig9Workloads()) {
        std::printf("--- workload: %s ---\n", fig9WorkloadName(w));
        Table table({"system", "NPUs", "total (ms)", "compute (ms)",
                     "exposed comm (ms)", "normalized"});
        double reference = 0.0;
        for (const ScalePoint &pt : scalePoints()) {
            Topology topo = presets::waferBaseline(pt.dim1, pt.dim4);
            Report r = runFig9Cell(topo, w, SchedPolicy::Themis,
                                   /*serialize_chunks=*/false);
            if (reference == 0.0)
                reference = r.totalTime; // Base-512.
            table.addRow({pt.name, std::to_string(topo.npus()),
                          Table::num(r.totalTime / kMs),
                          Table::num(r.average.compute / kMs),
                          Table::num(r.average.exposedComm / kMs),
                          Table::num(r.totalTime / reference, 3)});
        }
        table.print();
        std::printf("\n");
    }
    return 0;
}
