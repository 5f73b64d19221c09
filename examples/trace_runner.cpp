/**
 * @file
 * Execution-trace workflow (§IV-A): generate an ASTRA-sim ET, save it
 * to JSON, reload, and simulate — or run a user-supplied trace file.
 */
#include <cstdio>

#include "astra/simulator.h"
#include "common/cli.h"
#include "topology/notation.h"
#include "workload/builders.h"
#include "workload/et_json.h"

using namespace astra;

namespace {

int
run(const CommandLine &cl)
{
    Topology topo =
        parseTopology(cl.getString("topo", "R(4,150)_SW(2,25)"));

    Workload wl;
    if (cl.has("trace")) {
        wl = loadWorkload(cl.getString("trace", ""));
        std::printf("loaded trace '%s' (%zu graphs, %zu nodes)\n",
                    wl.name.c_str(), wl.graphs.size(), wl.totalNodes());
    } else {
        HybridOptions opts;
        opts.mp = topo.dim(0).size;
        opts.simLayers = 4;
        wl = buildHybridTransformer(topo, gpt3(), opts);
        std::printf("generated trace '%s' (%zu nodes)\n",
                    wl.name.c_str(), wl.totalNodes());
        if (cl.has("emit")) {
            std::string path = cl.getString("emit", "trace.json");
            saveWorkload(path, wl);
            std::printf("wrote %s\n", path.c_str());
            return 0;
        }
        // Round-trip through the serialized form to exercise the
        // parser exactly as an external trace would.
        wl = workloadFromText(workloadToText(wl));
    }

    SimulatorConfig cfg;
    // --trace already names the input ET file, so the timeline output
    // uses --trace-out (docs/trace.md).
    cfg.trace = trace::traceConfigFromCli(cl, "trace-out");
    cfg.telemetry = telemetry::telemetryConfigFromCli(cl);
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
        {"trace", FlagKind::Value, "execution trace to run (default: build)"},
        {"topo", FlagKind::Value,
         "preset or notation (default R(4,150)_SW(2,25))"},
        {"emit", FlagKind::Value, "write the built trace and exit"}};
    CliSpec spec{.groups = {flags, trace::cliFlags("trace-out"),
                            telemetry::cliFlags(), logFlags()}};
    return runCli(argc, argv, spec, run);
}
