/**
 * @file
 * Multi-tenant cluster simulation from a JSON scenario
 * (docs/cluster.md): place N jobs on one shared fabric, co-execute
 * them, and report per-job queueing delay and interference slowdown.
 */
#include <cstdio>
#include <string>
#include <utility>

#include "astra/config.h"
#include "cluster/config.h"
#include "common/cli.h"
#include "common/logging.h"
#include "common/output_file.h"

using namespace astra;
using namespace astra::cluster;

namespace {

int
run(const CommandLine &cli)
{
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
        {"no-baselines", FlagKind::Switch, "skip isolated per-job runs"}};
    CliSpec spec{.usage = {"cluster_runner <scenario.json> [flags]",
                           "cluster_runner --sample FILE"},
                 .groups = {flags, trace::cliFlags("trace"),
                            telemetry::cliFlags(), logFlags()},
                 .maxPositional = 1,
                 .sample = writeSampleClusterConfig};
    return runCli(argc, argv, spec, run);
}
