/**
 * @file
 * Experiment E1 — Fig. 4: analytical network backend validation.
 *
 * The paper validates the analytical backend against real NCCL v2.4.6
 * runs on 4 and 16 V100 GPUs connected by a 150 GB/s NVLink ring,
 * for 64 MB - 1.5 GB All-Reduce, reporting a 5% mean error. We have
 * no GPUs here, so the reference is the packet-level detailed backend
 * (DESIGN.md substitution table): it simulates the identical traffic
 * per packet with store-and-forward contention, per-packet protocol
 * headers, and per-message software launch overhead -- the
 * real-system effects the closed form deliberately ignores. The claim
 * being reproduced: the equation-based backend tracks an independent
 * reference within a few percent across the size sweep.
 */
#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/table.h"

using namespace astra;
using namespace astra::bench;
using namespace astra::literals;

int
main()
{
    setLogLevel(LogLevel::Warn);
    std::printf("E1 / Fig. 4: analytical backend vs packet-level "
                "reference\n");
    std::printf("Ring topology at 150 GB/s (V100+NVLink proxy), "
                "All-Reduce sweep\n\n");

    const Bytes sizes[] = {64_MB, 96_MB, 128_MB, 192_MB, 0.75_GB,
                           1.5_GB};
    Accumulator error;
    Table table({"NPUs", "size", "analytical (us)", "reference (us)",
                 "error %"});
    for (int npus : {4, 16}) {
        Topology topo({{BlockType::Ring, npus, 150.0, 700.0}});
        for (Bytes size : sizes) {
            CollectiveRequest req = CollectiveRequest::overDims(
                CollectiveType::AllReduce, size);
            req.chunks = 4;
            CollectiveResult analytical = runCollectiveOn(
                topo, NetworkBackendKind::Analytical, req);
            // Reference: 64 KiB packets with 2 KiB of protocol
            // headers per packet and a 2 us per-message software
            // launch cost (NCCL-kernel-scale effects).
            CollectiveResult reference = runCollectiveOn(
                topo, NetworkBackendKind::Packet, req, 64.0 * kKiB,
                2.0 * kKiB, 2.0 * kUs);
            double err = 100.0 *
                         std::abs(analytical.time - reference.time) /
                         reference.time;
            error.add(err);
            char label[32];
            std::snprintf(label, sizeof(label), "%.0f MB", size / 1_MB);
            table.addRow({std::to_string(npus), label,
                          Table::num(analytical.time / kUs),
                          Table::num(reference.time / kUs),
                          Table::num(err, 2)});
        }
    }
    table.print();
    std::printf("\nmean error: %.2f%% (paper: 5%% vs real system)\n",
                error.mean());
    std::printf("max error:  %.2f%%\n", error.max());
    return 0;
}
