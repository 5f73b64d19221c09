/**
 * @file
 * MoE-1T training over disaggregated memory (the paper's §V-B
 * setting): compare ZeRO-Infinity-style per-node tiers against the
 * hierarchical memory pool, with and without in-switch collective
 * fusion, on one command line.
 */
#include "common/logging.h"
#include <cstdio>

#include "astra/simulator.h"
#include "common/cli.h"
#include "workload/builders.h"

using namespace astra;

namespace {

/** 16 nodes x 16 GPUs: NVSwitch-like in-node + IB-like scale-out. */
Topology
clusterTopology()
{
    return Topology({{BlockType::Switch, 16, 300.0, 300.0},
                     {BlockType::Switch, 16, 25.0, 700.0}});
}

int
run(const CommandLine &cl)
{
    std::string system = cl.getString("system", "hiermem");

    SimulatorConfig cfg;
    cfg.sys.compute.peakTflops = 2048.0; // Table V GPU peak perf.
    cfg.localMem.bandwidth = 4096.0;     // Table V local HBM.

    MoEOptions opts;
    opts.simLayers = static_cast<int>(cl.getInt("layers", 0));
    opts.iterations = static_cast<int>(cl.getInt("iterations", 1));

    if (system == "zero") {
        ZeroInfinityConfig zero;
        zero.tierBandwidth = 100.0; // Table V remote mem group BW.
        cfg.zeroInfinityMem = zero;
        opts.path = ParamPath::NetworkCollectives;
    } else if (system == "hiermem" || system == "hiermem-opt") {
        RemoteMemoryConfig pool; // Table V baseline defaults.
        if (system == "hiermem-opt") {
            pool.inNodeFabricBw = 512.0;   // Table V HierMem(Opt).
            pool.gpuSideOutNodeBw = 512.0;
            pool.remoteMemGroupBw = 500.0;
        }
        cfg.pooledMem = pool;
        opts.path = ParamPath::FusedInSwitch;
    } else {
        fatal("unknown --system '%s' (zero | hiermem | hiermem-opt)",
              system.c_str());
    }

    Topology topo = clusterTopology();
    ModelDesc model = moe1T();
    std::printf("MoE-1T on %s, system=%s\n", topo.notation().c_str(),
                system.c_str());

    Workload wl = buildMoEDisaggregated(topo, model, opts);
    Simulator sim(std::move(topo), cfg);
    Report report = sim.run(wl);
    std::printf("%s", report.summary().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagGroup flags = {
        {"system", FlagKind::Value, "zero | hiermem | hiermem-opt"},
        {"layers", FlagKind::Value, "simulated layers (0 = the model's)"},
        {"iterations", FlagKind::Value, "training iterations (default 1)"}};
    return runCli(argc, argv, {.groups = {flags}}, run);
}
