/**
 * @file
 * Experiment E4 — Table IV: per-dimension message sizes and
 * collective time when scaling the wafer baseline.
 *
 * Reproduces both halves of Table IV:
 *  - the per-dimension message sizes (in+out MB per NPU) of a 1 GB
 *    All-Gather — these are model-determined and match the paper
 *    exactly;
 *  - the 1 GB All-Reduce collective time across the scale-out rows
 *    (2_8_8_{4..32}: near-identical) and the wafer-scaling rows
 *    ({2..16}_8_8_4: up to ~2.5x faster, bouncing at 16_8_8_4).
 */
#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "collective/phases.h"
#include "common/table.h"

using namespace astra;
using namespace astra::bench;

namespace {

struct Row
{
    int dim1;
    int dim4;
    double paperTimeUs; // Table IV collective time.
};

const Row kRows[] = {
    {2, 4, 4392.85},  {2, 8, 4392.85},  {2, 16, 4392.85},
    {2, 32, 4392.85}, {4, 4, 2212.60},  {8, 4, 1753.48},
    {16, 4, 1879.17},
};

} // namespace

int
main()
{
    setLogLevel(LogLevel::Warn);
    std::printf("E4 / Table IV: message size per dimension and "
                "collective time\n");
    std::printf("1 GB All-Gather sizes (in+out MB per NPU) + 1 GB "
                "All-Reduce time\n\n");

    Table table({"System", "NPUs", "Dim1 MB", "Dim2 MB", "Dim3 MB",
                 "Dim4 MB", "time (us)", "paper (us)", "rel"});
    double base_time = 0.0;
    for (const Row &row : kRows) {
        Topology topo = presets::waferBaseline(row.dim1, row.dim4);

        std::vector<Bytes> sent =
            perDimSentBytes(topo, CollectiveType::AllGather, 1.0 * kGiB,
                            wholeTopologyGroups(topo));

        CollectiveRequest req = CollectiveRequest::overDims(
            CollectiveType::AllReduce, 1.0 * kGiB);
        req.chunks = 32; // fine pipelining: the Table IV regime.
        CollectiveResult res =
            runCollectiveOn(topo, NetworkBackendKind::Analytical, req);
        if (base_time == 0.0)
            base_time = res.time;

        table.addRow({topo.shapeString(), std::to_string(topo.npus()),
                      Table::num(2.0 * sent[0] / kMiB, 1),
                      Table::num(2.0 * sent[1] / kMiB, 1),
                      Table::num(2.0 * sent[2] / kMiB, 1),
                      Table::num(2.0 * sent[3] / kMiB, 2),
                      Table::num(res.time / kUs),
                      Table::num(row.paperTimeUs),
                      Table::num(base_time / res.time, 2)});
    }
    table.print();
    std::printf(
        "\nShape checks: scale-out rows (2_8_8_x) share one time; "
        "wafer rows improve\nup to ~2.5x then bounce at 16_8_8_4 "
        "(paper: 1.00/1.99/2.51/2.34 relative).\n");
    return 0;
}
