/**
 * @file
 * Extension ablation: binary-tree All-Reduce (§II-B [50]) vs the
 * Table I topology-aware algorithms, across message sizes and group
 * radices on a switch fabric.
 *
 * Trees pay only O(log k) chain steps but retransmit the full tensor
 * at every level. Versus Halving-Doubling (same O(log k) chain) the
 * tree ties at tiny sizes and loses once bandwidth matters; versus
 * the (k-1)-step Ring it wins the whole latency-bound regime — the
 * NCCL double-binary-tree motivation.
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
    std::printf("Tree vs RS+AG (Halving-Doubling) All-Reduce on a "
                "switch, 150 GB/s, 2 us hops\n\n");

    for (int radix : {8, 64}) {
        Topology sw({{BlockType::Switch, radix, 150.0, 2000.0}});
        Topology ring({{BlockType::Ring, radix, 150.0, 2000.0}});
        std::printf("--- radix %d ---\n", radix);
        Table table({"size", "tree (us)", "hd rs+ag (us)",
                     "ring rs+ag (us)", "tree/hd", "tree/ring"});
        for (Bytes size : {4_KB, 64_KB, 1_MB, 16_MB, 256_MB}) {
            CollectiveRequest req = CollectiveRequest::overDims(
                CollectiveType::AllReduce, size);
            req.chunks = 1;
            CollectiveRequest tree_req = req;
            tree_req.treeAllReduce = true;
            TimeNs hd = runCollectiveOn(
                sw, NetworkBackendKind::Analytical, req).time;
            TimeNs ring_t = runCollectiveOn(
                ring, NetworkBackendKind::Analytical, req).time;
            TimeNs tree = runCollectiveOn(
                sw, NetworkBackendKind::Analytical, tree_req).time;
            char label[32];
            if (size < 1_MB)
                std::snprintf(label, sizeof(label), "%.0f KB",
                              size / 1e3);
            else
                std::snprintf(label, sizeof(label), "%.0f MB",
                              size / 1_MB);
            table.addRow({label, Table::num(tree / kUs),
                          Table::num(hd / kUs),
                          Table::num(ring_t / kUs),
                          Table::num(tree / hd, 2),
                          Table::num(tree / ring_t, 2)});
        }
        table.print();
        std::printf("\n");
    }
    std::printf("tree/ring << 1 at small sizes (latency regime); "
                "tree/hd >= 1 everywhere (HD shares the log-k chain "
                "and is bandwidth-optimal).\n");
    return 0;
}
