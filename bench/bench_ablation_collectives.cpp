/**
 * @file
 * Experiment E8 — Table I ablation: per-dimension collective
 * algorithms across message sizes.
 *
 * All three topology-aware algorithms move the same (k-1)/k share of
 * the tensor, so they converge at large (bandwidth-bound) sizes; the
 * latency term separates them at small sizes: Ring pays (k-1) steps,
 * Halving-Doubling log2(k) switch traversals, Direct a single step.
 * This is exactly why Table I pairs each building block with its
 * congestion-free algorithm.
 */
#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "common/table.h"

using namespace astra;
using namespace astra::bench;
using namespace astra::literals;

int
main()
{
    setLogLevel(LogLevel::Warn);
    std::printf("E8 / Table I ablation: Ring vs Direct vs "
                "Halving-Doubling (k=16, 100 GB/s, 1 us hops)\n\n");

    struct Block
    {
        const char *name;
        BlockType type;
    };
    const Block blocks[] = {
        {"Ring", BlockType::Ring},
        {"Direct (FC)", BlockType::FullyConnected},
        {"HalvingDoubling (SW)", BlockType::Switch},
    };

    Table table({"size", "Ring (us)", "Direct (us)", "HD (us)",
                 "Ring/HD", "Direct/HD"});
    for (Bytes size : {64_KB, 256_KB, 1_MB, 16_MB, 256_MB, 1_GB}) {
        std::vector<TimeNs> times;
        for (const Block &b : blocks) {
            Topology topo({{b.type, 16, 100.0, 1000.0}});
            CollectiveRequest req = CollectiveRequest::overDims(
                CollectiveType::AllReduce, size);
            req.chunks = 1;
            times.push_back(
                runCollectiveOn(topo, NetworkBackendKind::Analytical,
                                req)
                    .time);
        }
        char label[32];
        if (size < 1_MB)
            std::snprintf(label, sizeof(label), "%.0f KB", size / 1e3);
        else
            std::snprintf(label, sizeof(label), "%.0f MB", size / 1_MB);
        table.addRow({label, Table::num(times[0] / kUs),
                      Table::num(times[1] / kUs),
                      Table::num(times[2] / kUs),
                      Table::num(times[0] / times[2], 2),
                      Table::num(times[1] / times[2], 2)});
    }
    table.print();
    std::printf("\nSmall sizes: latency-separated (Ring worst, Direct "
                "best). Large sizes: all bandwidth-bound and equal.\n");
    return 0;
}
