/**
 * @file
 * Command-line design-space exploration: run a declarative sweep spec
 * (src/sweep/spec.h) across worker threads and tabulate the results.
 *
 * --cache enables incremental re-runs: results keyed by config hash
 * are loaded before and saved after the batch, so editing one axis
 * value re-simulates only the changed grid points. --auto-diff re-runs
 * the metric's argmin and argmax configurations with full tracing and
 * prints the span-level explanation of their difference; --diff-rows
 * does the same for any row pair (docs/trace.md). The telemetry flags
 * stream batch progress and write manifests (docs/observability.md).
 * A batch with any failed row exits 2 after writing its outputs.
 */
#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "common/cli.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "common/table.h"
#include "common/units.h"
#include "sweep/auto_diff.h"
#include "sweep/result_store.h"

using namespace astra;
using namespace astra::sweep;

namespace {

/** A time cell of the console table, in ms: two decimals, or two
 *  significant digits where two decimals would print a nonzero time
 *  as 0.00. An exact zero prints as 0. */
std::string
msCell(TimeNs ns)
{
    double ms = ns / kMs;
    if (ms == 0.0)
        return "0";
    if (std::fabs(ms) < 0.01)
        return detail::formatV("%.2g", ms);
    return Table::num(ms);
}

int
run(const CommandLine &cli)
{
    // `--diff-rows I J` leaves J as a stray positional; accept that
    // form as well as `--diff-rows I,J`.
    ASTRA_USER_CHECK(cli.positional().size() == 1 ||
                         (cli.has("diff-rows") &&
                          cli.positional().size() == 2),
                     "expected one spec file (see --help)");

    SweepSpec spec = SweepSpec::fromFile(cli.positional()[0]);
    std::printf("sweep '%s': %zu configurations, %zu axes\n",
                spec.name().c_str(), spec.configCount(),
                spec.axes().size());

    BatchOptions opts;
    opts.threads = static_cast<int>(cli.getInt("threads", 0));
    opts.telemetry = telemetry::telemetryConfigFromCli(cli);
    opts.manifestDir = cli.getString("manifest-dir", "");
    if (!opts.manifestDir.empty()) {
        int rc = ::mkdir(opts.manifestDir.c_str(), 0777);
        ASTRA_USER_CHECK(rc == 0 || errno == EEXIST,
                         "--manifest-dir: cannot create '%s'",
                         opts.manifestDir.c_str());
    }
    ResultCache cache;
    std::string cache_path = cli.getString("cache", "");
    if (!cache_path.empty()) {
        size_t loaded = cache.loadFile(cache_path);
        std::printf("cache: %zu entries loaded from %s\n", loaded,
                    cache_path.c_str());
        opts.cache = &cache;
    }

    Metric metric = metricByName(cli.getString("metric", "total_ns"));
    BatchOutcome outcome = runBatch(spec, opts);
    std::printf("ran %zu configs on %d threads in %.2fs "
                "(%zu cache hits, %zu failures)\n\n",
                outcome.results.size(), outcome.threadsUsed,
                outcome.wallSeconds, outcome.cacheHits,
                outcome.failures);

    size_t failures = outcome.failures;
    double batch_wall = outcome.wallSeconds;
    ResultStore store = ResultStore::fromBatch(spec, std::move(outcome));

    // Console table: axes + total + the five-way breakdown (ms).
    std::vector<std::string> header = {"#"};
    for (const std::string &name : spec.axisNames())
        header.push_back(name);
    for (const char *col : {"total", "compute", "comm", "local",
                            "remote", "idle"})
        header.push_back(std::string(col) + " (ms)");
    Table table(header);
    for (size_t i = 0; i < store.rows(); ++i) {
        const SweepResult &r = store.row(i);
        std::vector<std::string> row = {std::to_string(r.config.index)};
        for (const std::string &v : r.config.axisValues)
            row.push_back(v);
        if (r.failed) {
            // The error follows the table: it may hold '|'.
            row.push_back("failed");
            while (row.size() < header.size())
                row.push_back("-");
        } else {
            const RuntimeBreakdown &b = r.report.average;
            for (TimeNs t : {r.report.totalTime, b.compute, b.exposedComm,
                             b.exposedLocalMem, b.exposedRemoteMem,
                             b.idle})
                row.push_back(msCell(t));
        }
        table.addRow(std::move(row));
    }
    table.print();
    if (failures > 0) {
        std::printf("\n");
        for (size_t i = 0; i < store.rows(); ++i) {
            const SweepResult &r = store.row(i);
            if (r.failed)
                std::printf("#%zu failed: %s\n", r.config.index,
                            r.error.c_str());
        }
    }

    if (failures < store.rows()) {
        size_t best = store.argmin(metric);
        std::printf("\nbest %s: config #%zu (%s) = %.3f\n",
                    metricName(metric), best,
                    store.row(best).config.label.c_str(),
                    store.value(best, metric));
        if (cli.has("auto-diff")) {
            AutoDiffResult ad = autoDiffExtremes(spec, store, metric);
            std::printf("\nauto-diff (%s): argmin #%zu (%s) vs "
                        "argmax #%zu (%s)\n",
                        metricName(metric), ad.indexMin,
                        ad.labelMin.c_str(), ad.indexMax,
                        ad.labelMax.c_str());
            std::fputs(
                trace::analysis::diffSummary(ad.diff).c_str(), stdout);
            std::string diff_path = cli.getString("auto-diff", "");
            if (!diff_path.empty()) {
                OutputFile::write(
                    diff_path, "JSON file",
                    trace::analysis::diffToJson(ad.diff).dump(2) + "\n");
                std::printf("wrote %s\n", diff_path.c_str());
            }
        }
        if (cli.has("diff-rows")) {
            // Accept "--diff-rows I,J" and "--diff-rows I J" (the
            // second index arrives as a stray positional).
            std::string first = cli.getString("diff-rows", "");
            std::string second;
            size_t comma = first.find(',');
            if (comma != std::string::npos) {
                second = first.substr(comma + 1);
                first = first.substr(0, comma);
            } else if (cli.positional().size() == 2) {
                second = cli.positional()[1];
            }
            ASTRA_USER_CHECK(!first.empty() && !second.empty(),
                             "--diff-rows: expected two row indices "
                             "(\"I J\" or \"I,J\")");
            AutoDiffResult ad = autoDiffRows(
                spec, store,
                static_cast<size_t>(parseInt(first, "--diff-rows")),
                static_cast<size_t>(parseInt(second, "--diff-rows")));
            std::printf("\nrow diff: #%zu (%s) vs #%zu (%s)\n",
                        ad.indexMin, ad.labelMin.c_str(), ad.indexMax,
                        ad.labelMax.c_str());
            std::fputs(
                trace::analysis::diffSummary(ad.diff).c_str(), stdout);
        }
    }

    std::string csv_path = cli.getString("csv", "");
    if (!csv_path.empty()) {
        OutputFile::write(csv_path, "CSV file", store.toCsv());
        std::printf("wrote %s\n", csv_path.c_str());
    }
    std::string json_path = cli.getString("json", "");
    if (!json_path.empty()) {
        OutputFile::write(json_path, "JSON file",
                          store.toJson().dump(2) + "\n");
        std::printf("wrote %s\n", json_path.c_str());
    }
    if (!cache_path.empty()) {
        cache.saveFile(cache_path);
        std::printf("cache: %zu entries saved to %s\n", cache.size(),
                    cache_path.c_str());
    }
    std::string manifest_path = cli.getString("manifest", "");
    if (!manifest_path.empty()) {
        telemetry::ManifestInfo info;
        info.kind = "sweep";
        info.configHash =
            configHash(json::parseFile(cli.positional()[0]));
        info.wallBreakdown.emplace_back("batch", batch_wall);
        // The batch has no simulated results: its Report holds only
        // the host's wall time and peak RSS.
        Report batch;
        batch.wallSeconds = batch_wall;
        batch.peakRssBytes = telemetry::peakRssBytes();
        if (!opts.telemetry.file.empty())
            info.outputs.push_back(opts.telemetry.file);
        if (!opts.manifestDir.empty())
            for (size_t i = 0; i < store.rows(); ++i)
                if (!store.row(i).manifest.empty())
                    info.outputs.push_back(store.row(i).manifest);
        if (!csv_path.empty())
            info.outputs.push_back(csv_path);
        if (!json_path.empty())
            info.outputs.push_back(json_path);
        if (!cache_path.empty())
            info.outputs.push_back(cache_path);
        telemetry::writeManifest(manifest_path, info, batch);
        std::printf("wrote %s\n", manifest_path.c_str());
    }
    // The outputs above still record every row; a failed row makes
    // the batch a user error all the same.
    for (size_t i = 0; i < store.rows(); ++i) {
        const SweepResult &r = store.row(i);
        if (r.failed)
            fatal("%zu of %zu configurations failed (first: #%zu %s: %s)",
                  failures, store.rows(), r.config.index,
                  r.config.label.c_str(), r.error.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagGroup flags = {
        {"threads", FlagKind::Value, "worker threads (0 = all)"},
        {"cache", FlagKind::Value, "result cache, loaded and saved"},
        {"csv", FlagKind::Value, "write the results as CSV"},
        {"json", FlagKind::Value, "write the results as JSON"},
        {"metric", FlagKind::Value, "metric to rank by (default total_ns)"},
        {"auto-diff", FlagKind::Optional, "explain argmin vs argmax [JSON]"},
        {"diff-rows", FlagKind::Value, "explain two rows: I,J (or I J)"},
        {"manifest-dir", FlagKind::Value, "write one manifest per row here"}};
    CliSpec spec{.usage = {"sweep_runner <spec.json> [flags]",
                           "sweep_runner --sample FILE"},
                 .groups = {flags, telemetry::cliFlags(), logFlags()},
                 .maxPositional = 2,
                 .sample = writeSampleSpec};
    return runCli(argc, argv, spec, run);
}
