/**
 * @file
 * Multi-tenant cluster simulation from a JSON scenario
 * (docs/cluster.md): place N jobs on one shared fabric, co-execute
 * them, and report per-job queueing delay and interference slowdown.
 *
 * The --demo mode runs the contiguous-vs-spread placement experiment
 * from the docs on a Ring(16) cluster: two 8-NPU all-reduce jobs
 * placed on disjoint contiguous slices share no links (slowdown
 * 1.0x); the same two jobs striped across the ring contend on every
 * hop and slow each other down — visible only to the
 * congestion-resolving backends (flow, packet).
 */
#include <cstdio>
#include <string>
#include <utility>

#include "astra/config.h"
#include "cluster/config.h"
#include "common/cli.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "common/units.h"

using namespace astra;
using namespace astra::cluster;

namespace {

json::Value
demoDoc(const std::string &backend, const std::string &placement)
{
    std::string text = R"json({
      "topology": "Ring(16,100)",
      "backend": ")json" + backend +
                       R"json(",
      "cluster": {
        "placement": ")json" + placement +
                       R"json(",
        "jobs": [
          {"name": "a", "size": 8,
           "workload": {"kind": "collective",
                        "collective": "all-reduce",
                        "bytes": 4194304}},
          {"name": "b", "size": 8,
           "workload": {"kind": "collective",
                        "collective": "all-reduce",
                        "bytes": 4194304}}
        ]
      }
    })json";
    return json::parse(text);
}

/// "timeline.json" + "spread" -> "timeline.spread.json"; the demo
/// runs both placements, and each deserves its own trace.
std::string
tagPath(const std::string &path, const std::string &tag)
{
    if (path.empty())
        return path;
    size_t dot = path.rfind('.');
    size_t slash = path.find_last_of('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + "." + tag;
    return path.substr(0, dot) + "." + tag + path.substr(dot);
}

int
runDemo(const std::string &backend, const CommandLine &cli)
{
    std::printf("two 8-NPU all-reduce jobs on a shared Ring(16), "
                "backend '%s'\n\n",
                backend.c_str());
    for (const char *placement : {"contiguous", "spread"}) {
        ClusterScenario scenario = scenarioFromJson(
            demoDoc(backend, placement), cliOverrides(cli, "trace"));
        scenario.cfg.trace.file =
            tagPath(scenario.cfg.trace.file, placement);
        scenario.cfg.trace.utilizationFile =
            tagPath(scenario.cfg.trace.utilizationFile, placement);
        ClusterSimulator sim(std::move(scenario.topo), scenario.cfg);
        for (JobSpec &job : scenario.jobs)
            sim.addJob(std::move(job));
        ClusterReport report = sim.run();
        sim.writeManifest(report);
        std::printf("placement: %s\n%s\n", placement,
                    report.summary().c_str());
        for (const std::string &out : scenario.cfg.outputFiles())
            std::printf("wrote %s\n", out.c_str());
    }
    std::printf("contiguous slices share no ring links (slowdown "
                "1.0x); striped slices route every hop through the "
                "other tenant's links. The analytical backends only "
                "serialize per-NPU transmit ports, so they cannot see "
                "this contention (docs/cluster.md).\n");
    return 0;
}

int
run(const CommandLine &cli)
{
    if (cli.getBool("demo"))
        return runDemo(cli.getString("backend", "flow"), cli);

    ASTRA_USER_CHECK(cli.positional().size() == 1,
                     "expected one scenario file (see --help)");

    // The flags write over the file's trace and telemetry blocks; the
    // manifest's config hash stays the file's.
    ClusterScenario scenario =
        scenarioFromJson(json::parseFile(cli.positional()[0]),
                         cliOverrides(cli, "trace"));
    if (cli.getBool("no-baselines"))
        scenario.cfg.isolatedBaselines = false;

    std::printf("cluster: %s, backend %s, %zu jobs, admission %s\n\n",
                scenario.topo.notation().c_str(),
                backendName(scenario.cfg.backend),
                scenario.jobs.size(),
                admissionPolicyName(scenario.cfg.admission));

    ClusterSimulator sim(std::move(scenario.topo), scenario.cfg);
    for (JobSpec &job : scenario.jobs)
        sim.addJob(std::move(job));
    ClusterReport report = sim.run();
    std::printf("%s", report.summary().c_str());

    // The manifest comes last, so it lists the report files too.
    std::vector<std::string> report_files;
    std::string csv_path = cli.getString("csv", "");
    if (!csv_path.empty()) {
        OutputFile::write(csv_path, "CSV file", report.jobsCsv());
        std::printf("wrote %s\n", csv_path.c_str());
        report_files.push_back(csv_path);
    }
    std::string json_path = cli.getString("json", "");
    if (!json_path.empty()) {
        OutputFile::write(json_path, "JSON file",
                          report.toJson().dump(2) + "\n");
        std::printf("wrote %s\n", json_path.c_str());
        report_files.push_back(json_path);
    }
    sim.writeManifest(report, report_files);
    for (const std::string &out : scenario.cfg.outputFiles())
        std::printf("wrote %s\n", out.c_str());
    if (!scenario.cfg.telemetry.manifest.empty())
        std::printf("wrote %s\n",
                    scenario.cfg.telemetry.manifest.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagGroup flags = {
        {"csv", FlagKind::Value, "write the per-job table as CSV"},
        {"json", FlagKind::Value, "write the cluster report as JSON"},
        {"demo", FlagKind::Switch, "run the contiguous-vs-spread demo"},
        {"backend", FlagKind::Value, "backend of --demo (default flow)"},
        {"no-baselines", FlagKind::Switch, "skip isolated per-job runs"}};
    CliSpec spec{.usage = {"cluster_runner <scenario.json> [flags]",
                           "cluster_runner --sample FILE",
                           "cluster_runner --demo [--backend B] [flags]"},
                 .groups = {flags, trace::cliFlags("trace"),
                            telemetry::cliFlags(), logFlags()},
                 .maxPositional = 1,
                 .sample = writeSampleClusterConfig};
    return runCli(argc, argv, spec, run);
}
