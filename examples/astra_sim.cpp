/**
 * @file
 * The full config-driven simulator front end, mirroring the real
 * ASTRA-sim command line: a network config, a system config, and an
 * execution-trace file define a complete simulation.
 */
#include "common/logging.h"
#include <cstdio>

#include "astra/config.h"
#include "astra/simulator.h"
#include "common/cli.h"
#include "workload/builders.h"
#include "workload/et_json.h"

using namespace astra;

namespace {

int
run(const CommandLine &cl)
{
    if (cl.has("emit-samples")) {
        std::string dir = cl.getString("emit-samples", ".");
        writeSampleConfigs(dir + "/network.json", dir + "/system.json");
        std::printf("wrote %s/network.json and %s/system.json\n",
                    dir.c_str(), dir.c_str());
        return 0;
    }

    ASTRA_USER_CHECK(cl.has("network") && cl.has("system"),
                     "astra_sim needs --network and --system configs "
                     "(use --emit-samples DIR to generate examples)");
    json::Value doc =
        astraSimDoc(json::parseFile(cl.getString("network", "")),
                    json::parseFile(cl.getString("system", "")));
    // --trace already names the input ET file, so the timeline output
    // uses --trace-out (docs/trace.md).
    RunBlocks run = runBlocksFromJson(doc, cliOverrides(cl, "trace-out"));
    Topology topo = std::move(run.topo);
    SimulatorConfig cfg =
        simulatorConfigFromJson(doc.at("system"), run.cfg.backend);
    static_cast<RunConfig &>(cfg) = std::move(run.cfg);

    Workload wl;
    if (cl.has("trace")) {
        wl = loadWorkload(cl.getString("trace", ""));
    } else {
        // Synthetic single-collective workload for quick exploration.
        CollectiveType type =
            parseCollectiveType(cl.getString("synth", "all_reduce"));
        Bytes bytes = cl.getDouble("bytes", 1e9);
        wl = buildSingleCollective(topo, type, bytes);
    }

    std::printf("topology: %s (%d NPUs), backend: %s\n",
                topo.notation().c_str(), topo.npus(),
                backendName(cfg.backend));
    Simulator sim(std::move(topo), cfg);
    Report report = sim.run(wl);
    std::printf("%s", report.summary().c_str());
    for (const std::string &out : cfg.outputFiles())
        std::printf("wrote %s\n", out.c_str());
    if (!cfg.telemetry.manifest.empty())
        std::printf("wrote %s\n", cfg.telemetry.manifest.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagGroup flags = {
        {"network", FlagKind::Value, "network config JSON"},
        {"system", FlagKind::Value, "system config JSON"},
        {"trace", FlagKind::Value, "execution-trace JSON to run"},
        {"synth", FlagKind::Value, "collective without --trace (all_reduce)"},
        {"bytes", FlagKind::Value, "its size in bytes (default 1e9)"},
        {"emit-samples", FlagKind::Value, "write sample configs to this dir"}};
    CliSpec spec{.usage = {"astra_sim --network F --system F [flags]",
                           "astra_sim --emit-samples DIR"},
                 .groups = {flags, trace::cliFlags("trace-out"),
                            telemetry::cliFlags(), logFlags()}};
    return runCli(argc, argv, spec, run);
}
