/**
 * @file
 * Quickstart: simulate a 1 GB All-Reduce on a 2-node DGX-A100-like
 * system, then on a TPUv4-like 3-D torus, and print what the
 * simulator reports.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */
#include <cstdio>

#include "astra/simulator.h"
#include "common/cli.h"
#include "common/units.h"
#include "topology/notation.h"
#include "workload/builders.h"

using namespace astra;
using namespace astra::literals;

namespace {

void
runOn(const char *label, Topology topo)
{
    std::printf("=== %s: %s (%d NPUs) ===\n", label,
                topo.notation().c_str(), topo.npus());

    // A workload is one execution-trace graph per NPU; here just a
    // single collective node each.
    Workload wl =
        buildSingleCollective(topo, CollectiveType::AllReduce, 1_GB);

    SimulatorConfig cfg;
    cfg.sys.collectiveChunks = 16; // pipeline chunks across dims.
    Simulator sim(std::move(topo), cfg);
    Report report = sim.run(wl);

    std::printf("%s\n", report.summary().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(argc, argv, {}, [](const CommandLine &) {
        runOn("DGX-A100 x4 nodes",
              parseTopology("Switch(8,300)_Switch(4,25)"));
        runOn("TPUv4-like 3-D torus",
              parseTopology("Ring(4,56)_Ring(4,56)_Ring(4,56)"));
        runOn("Wafer-scale W-1D-500", parseTopology("w1d-500"));
        return 0;
    });
}
