/**
 * @file
 * Experiment E3 — Fig. 9(a): wafer-scale vs conventional systems with
 * baseline and greedy (Themis) collective scheduling, 512 NPUs.
 *
 * For each of the six Table II systems and four workloads, prints the
 * runtime breakdown (compute vs exposed comm) normalized to the
 * W-1D-350 baseline-scheduler cell, for both scheduler policies.
 *
 * Paper shapes to observe:
 *  - W-1D systems show no gain from the greedy scheduler;
 *  - W-2D / Conv-3D / Conv-4D benefit heavily;
 *  - with Themis, conventional systems match equal-BW wafer systems
 *    for All-Reduce and DLRM; GPT-3 / T-1T still favour wafer scale.
 */
#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "common/table.h"

using namespace astra;
using namespace astra::bench;

int
main()
{
    setLogLevel(LogLevel::Warn);
    std::printf("E3 / Fig. 9(a): baseline vs greedy (Themis) "
                "collective scheduling, 512 NPUs\n\n");

    for (Fig9Workload w : fig9Workloads()) {
        std::printf("--- workload: %s ---\n", fig9WorkloadName(w));
        Table table({"system", "sched", "total (ms)", "compute (ms)",
                     "exposed comm (ms)", "normalized"});
        double reference = 0.0;
        for (const SystemUnderTest &sys : fig9Systems()) {
            for (bool themis : {false, true}) {
                Report r = runFig9Cell(
                    sys.topo, w,
                    themis ? SchedPolicy::Themis : SchedPolicy::Baseline,
                    /*serialize_chunks=*/!themis);
                if (reference == 0.0)
                    reference = r.totalTime; // W-1D-350 baseline.
                table.addRow(
                    {sys.name, themis ? "themis" : "baseline",
                     Table::num(r.totalTime / kMs),
                     Table::num(r.average.compute / kMs),
                     Table::num(r.average.exposedComm / kMs),
                     Table::num(r.totalTime / reference, 3)});
            }
        }
        table.print();
        std::printf("\n");
    }
    return 0;
}
