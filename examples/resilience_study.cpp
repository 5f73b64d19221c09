/**
 * @file
 * Command-line resilience studies: checkpoint-interval auto-tuning
 * plus seeded failure-realization replication over a cluster config
 * (sweep/resilience.h, docs/fault.md "Checkpoint auto-tuning").
 *
 * The study document names a cluster config, a number of fault seeds,
 * optional placement-policy variants, and whether to tune the
 * checkpoint interval first; the tool prints a per-variant summary
 * (mean/p95 goodput, availability, blast radius) and optionally
 * writes the full JSON report.
 */
#include <cstdio>
#include <string>

#include "common/cli.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "common/table.h"
#include "common/units.h"
#include "sweep/resilience.h"

using namespace astra;
using namespace astra::sweep;

namespace {

int
run(const CommandLine &cli)
{
    ASTRA_USER_CHECK(cli.positional().size() == 1,
                     "expected one study file (see --help)");

    json::Value study = json::parseFile(cli.positional()[0]);
    int threads = static_cast<int>(cli.getInt("threads", 0));
    json::Value report = runResilienceStudy(study, threads);

    std::printf("study '%s': %lld seeds per variant\n",
                report.at("study").asString().c_str(),
                static_cast<long long>(report.at("seeds").asInt()));
    if (report.has("tuning")) {
        const json::Value &t = report.at("tuning");
        std::printf("tuned checkpoint interval: %.3f ms "
                    "(Young/Daly seed %.3f ms, %zu evaluations, "
                    "goodput %.4f)\n",
                    t.at("interval_ns").asNumber() / kMs,
                    t.at("young_daly_ns").asNumber() / kMs,
                    t.at("probes").asArray().size(),
                    t.at("goodput").asNumber());
    }

    Table table({"placement", "mean goodput", "p95 goodput",
                 "availability", "blast radius", "spare util",
                 "failures"});
    for (const json::Value &v : report.at("variants").asArray()) {
        table.addRow({v.at("placement").asString(),
                      Table::num(v.at("mean_goodput").asNumber()),
                      Table::num(v.at("p95_goodput").asNumber()),
                      Table::num(v.at("mean_availability").asNumber()),
                      Table::num(v.at("mean_blast_radius").asNumber()),
                      Table::num(
                          v.at("mean_spare_utilization").asNumber()),
                      std::to_string(v.at("failures").asInt())});
    }
    table.print();

    std::string json_path = cli.getString("json", "");
    if (!json_path.empty()) {
        OutputFile::write(json_path, "JSON file", report.dump(2) + "\n");
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagGroup flags = {
        {"threads", FlagKind::Value, "worker threads (0 = all)"},
        {"json", FlagKind::Value, "write the full report as JSON"}};
    CliSpec spec{.usage = {"resilience_study <study.json> [flags]",
                           "resilience_study --sample FILE"},
                 .groups = {flags, logFlags()},
                 .maxPositional = 1,
                 .sample = writeSampleResilienceStudy};
    return runCli(argc, argv, spec, run);
}
