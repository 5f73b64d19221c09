/**
 * @file
 * Experiment E10 — Fig. 5 ablation: memory pool architectures.
 *
 * Compares the four disaggregated-pool fabrics of Fig. 5 on the same
 * synchronized access pattern (every GPU loads W bytes), sweeping W.
 * The hierarchical pool and the multi-level switch pool scale with
 * their provisioned stage bandwidths; the ring pool is limited by
 * average hop distance, the mesh by its bisection.
 */
#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "common/table.h"
#include "memory/remote_memory.h"

using namespace astra;
using namespace astra::bench;
using namespace astra::literals;

int
main()
{
    setLogLevel(LogLevel::Warn);
    std::printf("E10 / Fig. 5 ablation: pool architectures, "
                "synchronized per-GPU load (256 GPUs)\n\n");

    const PoolArch archs[] = {PoolArch::Hierarchical,
                              PoolArch::MultiLevelSwitch, PoolArch::Ring,
                              PoolArch::Mesh};

    Table table({"per-GPU tensor", "hierarchical (us)",
                 "multi-level sw (us)", "ring (us)", "mesh (us)"});
    for (Bytes w : {1_MB, 16_MB, 64_MB, 256_MB}) {
        std::vector<std::string> row;
        char label[32];
        std::snprintf(label, sizeof(label), "%.0f MB", w / 1_MB);
        row.push_back(label);
        for (PoolArch arch : archs) {
            RemoteMemoryConfig cfg; // Table V baseline numbers.
            cfg.arch = arch;
            RemoteMemory mem(cfg);
            row.push_back(
                Table::num(mem.accessTime(MemOp::Load, w) / kUs));
        }
        table.addRow(std::move(row));
    }
    table.print();

    std::printf("\nIn-switch fusion support: ");
    for (PoolArch arch : archs) {
        RemoteMemoryConfig cfg;
        cfg.arch = arch;
        RemoteMemory mem(cfg);
        std::printf("%s=%s ", poolArchName(arch),
                    mem.supportsInSwitchCollectives() ? "yes" : "no");
    }
    std::printf("\n");
    return 0;
}
