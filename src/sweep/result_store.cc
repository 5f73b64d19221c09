#include "sweep/result_store.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "common/table.h"

namespace astra {
namespace sweep {

const char *
metricName(Metric m)
{
    const ReportMetricInfo &info = reportMetric(m);
    return info.csv ? info.csv : info.name;
}

Metric
metricByName(const std::string &name)
{
    std::string valid;
    for (size_t i = 0; i < reportMetrics().size(); ++i) {
        Metric m = static_cast<Metric>(i);
        if (name == metricName(m) || name == reportMetric(m).name)
            return m;
        valid += (i ? ", " : "") + std::string(metricName(m));
    }
    fatal("unknown metric '%s' (valid: %s)", name.c_str(), valid.c_str());
}

ResultStore::ResultStore(std::string sweep_name,
                         std::vector<std::string> axis_names)
    : sweepName_(std::move(sweep_name)), axisNames_(std::move(axis_names))
{
}

ResultStore
ResultStore::fromBatch(const SweepSpec &spec, const BatchOutcome &outcome)
{
    ResultStore store(spec.name(), spec.axisNames());
    for (const SweepResult &r : outcome.results)
        store.add(r);
    return store;
}

ResultStore
ResultStore::fromBatch(const SweepSpec &spec, BatchOutcome &&outcome)
{
    ResultStore store(spec.name(), spec.axisNames());
    for (SweepResult &r : outcome.results)
        store.add(std::move(r));
    return store;
}

void
ResultStore::add(SweepResult result)
{
    ASTRA_USER_CHECK(result.config.axisValues.size() == axisNames_.size(),
                     "result row has %zu axis values, store expects %zu",
                     result.config.axisValues.size(), axisNames_.size());
    rows_.push_back(std::move(result));
}

const SweepResult &
ResultStore::row(size_t i) const
{
    ASTRA_USER_CHECK(i < rows_.size(), "result row %zu out of range", i);
    return rows_[i];
}

double
ResultStore::value(size_t i, Metric m) const
{
    const SweepResult &r = row(i);
    ASTRA_USER_CHECK(!r.failed, "result row %zu failed: %s", i,
                     r.error.c_str());
    return reportMetric(m).get(r.report);
}

size_t
ResultStore::argmin(Metric m) const
{
    size_t best = rows_.size();
    for (size_t i = 0; i < rows_.size(); ++i) {
        if (rows_[i].failed)
            continue;
        if (best == rows_.size() || value(i, m) < value(best, m))
            best = i;
    }
    ASTRA_USER_CHECK(best < rows_.size(),
                     "argmin over an empty/all-failed result store");
    return best;
}

size_t
ResultStore::argmax(Metric m) const
{
    size_t best = rows_.size();
    for (size_t i = 0; i < rows_.size(); ++i) {
        if (rows_[i].failed)
            continue;
        if (best == rows_.size() || value(i, m) > value(best, m))
            best = i;
    }
    ASTRA_USER_CHECK(best < rows_.size(),
                     "argmax over an empty/all-failed result store");
    return best;
}

double
ResultStore::mean(Metric m) const
{
    double sum = 0.0;
    size_t n = 0;
    for (size_t i = 0; i < rows_.size(); ++i) {
        if (rows_[i].failed)
            continue;
        sum += value(i, m);
        ++n;
    }
    ASTRA_USER_CHECK(n > 0,
                     "mean over an empty/all-failed result store");
    return sum / double(n);
}

double
ResultStore::percentile(Metric m, double p) const
{
    ASTRA_USER_CHECK(p >= 0.0 && p <= 1.0,
                     "percentile: p must be in [0, 1], got %g", p);
    std::vector<double> values;
    for (size_t i = 0; i < rows_.size(); ++i) {
        if (!rows_[i].failed)
            values.push_back(value(i, m));
    }
    ASTRA_USER_CHECK(!values.empty(),
                     "percentile over an empty/all-failed result store");
    std::sort(values.begin(), values.end());
    // Nearest-rank: smallest value with cumulative frequency >= p.
    size_t rank = static_cast<size_t>(
        std::ceil(p * double(values.size())));
    return values[rank > 0 ? rank - 1 : 0];
}

std::string
ResultStore::toCsv() const
{
    std::string out = "index,label,config";
    for (const std::string &name : axisNames_)
        out += ',' + csvField(name);
    for (const ReportMetricInfo &m : reportMetrics())
        if (m.csv)
            out += ',' + std::string(m.csv);
    out += ",manifest,status\n";

    char buf[64];
    for (const SweepResult &r : rows_) {
        std::snprintf(buf, sizeof(buf), "%zu", r.config.index);
        out += buf;
        out += ',' + csvField(r.config.label);
        out += ',' + configHashString(r.config.hash);
        for (const std::string &v : r.config.axisValues)
            out += ',' + csvField(v);
        // Failed rows leave every metric and the manifest empty, with
        // the same arity as ok rows so header-keyed parsers align.
        for (const ReportMetricInfo &m : reportMetrics()) {
            if (!m.csv)
                continue;
            out += ',';
            if (r.failed)
                continue;
            double v = m.get(r.report);
            if (m.format == ReportMetricInfo::Count)
                std::snprintf(buf, sizeof(buf), "%llu",
                              static_cast<unsigned long long>(v));
            else
                std::snprintf(buf, sizeof(buf),
                              m.format == ReportMetricInfo::Fixed3
                                  ? "%.3f"
                                  : "%.6f",
                              v);
            out += buf;
        }
        out += ',' + (r.failed ? "" : csvField(r.manifest));
        out += ',' + (r.failed ? csvField("failed: " + r.error) : "ok");
        out += '\n';
    }
    return out;
}

json::Value
ResultStore::toJson() const
{
    json::Object doc;
    doc["sweep"] = json::Value(sweepName_);
    json::Array axes;
    for (const std::string &name : axisNames_)
        axes.push_back(json::Value(name));
    doc["axes"] = json::Value(std::move(axes));

    json::Array rows;
    rows.reserve(rows_.size());
    for (const SweepResult &r : rows_) {
        json::Object row;
        row["index"] = json::Value(static_cast<uint64_t>(r.config.index));
        row["label"] = json::Value(r.config.label);
        row["config"] = json::Value(configHashString(r.config.hash));
        json::Object axis_values;
        for (size_t a = 0; a < axisNames_.size(); ++a)
            axis_values[axisNames_[a]] =
                json::Value(r.config.axisValues[a]);
        row["axis_values"] = json::Value(std::move(axis_values));
        if (r.failed) {
            row["status"] = json::Value("failed");
            row["error"] = json::Value(r.error);
        } else {
            row["status"] = json::Value("ok");
            if (!r.manifest.empty())
                row["manifest"] = json::Value(r.manifest);
            row["report"] = reportToJson(r.report);
        }
        rows.push_back(json::Value(std::move(row)));
    }
    doc["rows"] = json::Value(std::move(rows));
    return json::Value(std::move(doc));
}

} // namespace sweep
} // namespace astra
