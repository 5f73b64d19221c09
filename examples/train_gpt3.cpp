/**
 * @file
 * Hybrid-parallel GPT-3 training on a configurable topology
 * (the paper's Fig. 9(a) setting for one system).
 */
#include <cstdio>

#include "astra/simulator.h"
#include "common/cli.h"
#include "topology/notation.h"
#include "workload/builders.h"

using namespace astra;

namespace {

int
run(const CommandLine &cl)
{

    Topology topo = parseTopology(cl.getString(
        "topo", "R(2,250)_FC(8,200)_R(8,100)_SW(4,50)"));
    int mp = static_cast<int>(cl.getInt("mp", 16));

    SimulatorConfig cfg;
    cfg.sys.collectiveChunks = static_cast<int>(cl.getInt("chunks", 8));
    std::string policy = cl.getString("policy", "baseline");
    if (policy == "themis") {
        cfg.sys.policy = SchedPolicy::Themis;
    } else {
        cfg.sys.policy = SchedPolicy::Baseline;
        cfg.sys.serializeChunks = true; // conservative hierarchical.
    }

    HybridOptions opts;
    opts.mp = mp;
    opts.simLayers = static_cast<int>(cl.getInt("layers", 0));

    ModelDesc model = gpt3();
    std::printf("GPT-3 (%.0fB params) on %s, MP=%d DP=%d, %s "
                "scheduler\n",
                model.params / 1e9, topo.notation().c_str(), mp,
                topo.npus() / mp, policy.c_str());

    Workload wl = buildHybridTransformer(topo, model, opts);
    Simulator sim(std::move(topo), cfg);
    Report report = sim.run(wl);
    std::printf("%s", report.summary().c_str());

    std::printf("network traffic per dimension (GB): ");
    for (double b : report.bytesPerDim)
        std::printf("%.2f ", b / 1e9);
    std::printf("\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagGroup flags = {
        {"topo", FlagKind::Value, "topology notation"},
        {"mp", FlagKind::Value, "model-parallel degree (default 16)"},
        {"policy", FlagKind::Value, "baseline | themis"},
        {"chunks", FlagKind::Value, "chunks per collective (default 8)"},
        {"layers", FlagKind::Value, "simulated layers (0 = the model's)"}};
    return runCli(argc, argv, {.groups = {flags}}, run);
}
