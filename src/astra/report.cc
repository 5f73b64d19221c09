#include "astra/report.h"

#include <algorithm>
#include <cstdio>
#include <optional>

namespace astra {

double
Report::exposedCommFraction() const
{
    TimeNs total = average.total();
    return total > 0.0 ? average.exposedComm / total : 0.0;
}

std::vector<double>
Report::dimUtilization(const Topology &topo) const
{
    std::vector<double> util(bytesPerDim.size(), 0.0);
    if (totalTime <= 0.0)
        return util;
    for (size_t d = 0;
         d < util.size() && d < size_t(topo.numDims()); ++d) {
        double per_npu = bytesPerDim[d] / double(topo.npus());
        util[d] = per_npu /
                  (topo.dim(static_cast<int>(d)).bandwidth * totalTime);
    }
    return util;
}

double
Report::maxLinkUtilization() const
{
    return totalTime > 0.0 ? maxLinkBusyNs / totalTime : 0.0;
}

std::vector<double>
Report::dimBusyFraction() const
{
    std::vector<double> frac(busyTimePerDim.size(), 0.0);
    if (totalTime <= 0.0)
        return frac;
    for (size_t d = 0; d < frac.size(); ++d) {
        int links = d < linksPerDim.size() ? linksPerDim[d] : 0;
        if (links > 0)
            frac[d] = busyTimePerDim[d] / (double(links) * totalTime);
    }
    return frac;
}

std::string
Report::summary() const
{
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "workload:            %s\n"
        "total time:          %.3f ms\n"
        "  compute:           %.3f ms (%.1f%%)\n"
        "  exposed comm:      %.3f ms (%.1f%%)\n"
        "  exposed local mem: %.3f ms (%.1f%%)\n"
        "  exposed remote mem:%.3f ms (%.1f%%)\n"
        "  idle:              %.3f ms (%.1f%%)\n"
        "events: %llu  messages: %llu  host time: %.3f s\n"
        "max link utilization: %.1f%%\n",
        workload.c_str(), totalTime / kMs, average.compute / kMs,
        100.0 * average.compute / std::max(average.total(), 1.0),
        average.exposedComm / kMs,
        100.0 * average.exposedComm / std::max(average.total(), 1.0),
        average.exposedLocalMem / kMs,
        100.0 * average.exposedLocalMem / std::max(average.total(), 1.0),
        average.exposedRemoteMem / kMs,
        100.0 * average.exposedRemoteMem /
            std::max(average.total(), 1.0),
        average.idle / kMs,
        100.0 * average.idle / std::max(average.total(), 1.0),
        static_cast<unsigned long long>(events),
        static_cast<unsigned long long>(messages), wallSeconds,
        100.0 * maxLinkUtilization());
    std::string out = buf;
    if (numFaults > 0) {
        std::snprintf(buf, sizeof(buf),
                      "faults: %llu  lost work: %.3f ms  recovery: "
                      "%.3f ms  goodput: %.3f\n",
                      static_cast<unsigned long long>(numFaults),
                      lostWorkNs / kMs, recoveryTimeNs / kMs, goodput);
        out += buf;
    }
    if (peakFootprintBytes > 0) {
        std::snprintf(buf, sizeof(buf),
                      "footprint: %.2f MiB  bytes/flow: %.0f  "
                      "bytes/NPU: %.0f\n",
                      double(peakFootprintBytes) / (1024.0 * 1024.0),
                      bytesPerFlow, bytesPerNpu);
        out += buf;
    }
    if (availability > 0.0 || blastRadius > 0.0) {
        std::snprintf(buf, sizeof(buf),
                      "availability: %.3f  blast radius: %.2f  "
                      "recovery p50/p95: %.3f/%.3f ms  spare util: "
                      "%.3f\n",
                      availability, blastRadius, recoveryP50Ns / kMs,
                      recoveryP95Ns / kMs, spareUtilization);
        out += buf;
    }
    return out;
}

namespace {

json::Value
breakdownToJson(const RuntimeBreakdown &b)
{
    json::Object o;
    o["compute_ns"] = json::Value(b.compute);
    o["exposed_comm_ns"] = json::Value(b.exposedComm);
    o["exposed_local_mem_ns"] = json::Value(b.exposedLocalMem);
    o["exposed_remote_mem_ns"] = json::Value(b.exposedRemoteMem);
    o["idle_ns"] = json::Value(b.idle);
    return json::Value(std::move(o));
}

RuntimeBreakdown
breakdownFromJson(const json::Value &v)
{
    RuntimeBreakdown b;
    b.compute = v.getNumber("compute_ns", 0.0);
    b.exposedComm = v.getNumber("exposed_comm_ns", 0.0);
    b.exposedLocalMem = v.getNumber("exposed_local_mem_ns", 0.0);
    b.exposedRemoteMem = v.getNumber("exposed_remote_mem_ns", 0.0);
    b.idle = v.getNumber("idle_ns", 0.0);
    return b;
}

template <class T>
json::Value
numberArray(const std::vector<T> &values)
{
    json::Array arr;
    arr.reserve(values.size());
    for (T v : values)
        arr.push_back(json::Value(v));
    return json::Value(std::move(arr));
}

template <class T>
std::vector<T>
numbersFrom(const json::Value &arr)
{
    std::vector<T> values;
    for (const json::Value &v : arr.asArray())
        values.push_back(static_cast<T>(v.asNumber()));
    return values;
}

// Vocabulary of the ASTRA_REPORT_METRICS columns.
using Info = ReportMetricInfo;
constexpr struct SameName {} Csv;
constexpr struct NoColumn {} NoCsv;
constexpr const char *csvColumn(const char *name, SameName) { return name; }
constexpr const char *csvColumn(const char *, NoColumn) { return nullptr; }
constexpr const char *csvColumn(const char *, const char *alias)
{
    return alias;
}

struct JsonRule
{
    Info::When when;
    std::optional<ReportMetric> gate; //!< unset: the metric itself.
};
constexpr JsonRule Always{Info::Always, {}};
constexpr JsonRule NoJson{Info::NoJson, {}};
constexpr JsonRule Positive{Info::Positive, {}};
constexpr JsonRule With(ReportMetric gate) { return {Info::Positive, gate}; }

// reportFromJson target: a Report field, or nothing for a derived
// metric (a method result, never read back from JSON).
template <class T>
void
assign(T &field, double v)
{
    field = static_cast<T>(v);
}
void assign(double &&, double) {}

std::vector<Info>
buildMetricTable()
{
    using enum ReportMetric;
#define ASTRA_REPORT_METRIC_INFO(id, name, csv, format, policy, expr)   \
    Info{name, csvColumn(name, csv), Info::format, policy.when,         \
         policy.gate.value_or(id),                                      \
         [](const Report &r) { return double(expr); },                  \
         [](Report &r, double v) { assign(expr, v); }},
    return {ASTRA_REPORT_METRICS(ASTRA_REPORT_METRIC_INFO)};
#undef ASTRA_REPORT_METRIC_INFO
}

} // namespace

const std::vector<ReportMetricInfo> &
reportMetrics()
{
    static const std::vector<ReportMetricInfo> table = buildMetricTable();
    return table;
}

const ReportMetricInfo &
reportMetric(ReportMetric m)
{
    return reportMetrics()[static_cast<size_t>(m)];
}

json::Value
reportToJson(const Report &report)
{
    json::Object doc;
    doc["workload"] = json::Value(report.workload);
    for (const ReportMetricInfo &m : reportMetrics()) {
        if (m.json == ReportMetricInfo::Always ||
            (m.json == ReportMetricInfo::Positive &&
             reportMetric(m.gate).get(report) > 0.0))
            doc[m.name] = json::Value(m.get(report));
    }
    doc["average"] = breakdownToJson(report.average);
    json::Array per_npu;
    per_npu.reserve(report.perNpu.size());
    for (const RuntimeBreakdown &b : report.perNpu)
        per_npu.push_back(breakdownToJson(b));
    doc["per_npu"] = json::Value(std::move(per_npu));
    doc["bytes_per_dim"] = numberArray(report.bytesPerDim);
    doc["busy_time_per_dim_ns"] = numberArray(report.busyTimePerDim);
    doc["links_per_dim"] = numberArray(report.linksPerDim);
    // Conditional scalars (failure-domain metrics, heartbeats, trace
    // analysis) follow the table's JSON policy: serialized only when
    // measured, so fault-free, untraced report JSON — and the sweep
    // cache fingerprint — is unchanged. The footprint rollup is
    // capacity-based, hence deterministic, and always serialized;
    // peak RSS is host state and excluded like wallSeconds.
    json::Object footprint;
    for (const auto &[name, bytes] : report.footprintBySubsystem)
        footprint[name] = json::Value(static_cast<uint64_t>(bytes));
    doc["footprint"] = json::Value(std::move(footprint));
    // Trace self-profiling is serialized only when present so the
    // default (untraced) report JSON — and with it the sweep cache
    // fingerprint — is unchanged. Wall-clock attribution is excluded
    // for the same reason wallSeconds is (see header comment).
    if (!report.traceCounters.empty()) {
        json::Object counters;
        for (const auto &[key, v] : report.traceCounters)
            counters[key] = json::Value(v);
        doc["trace_counters"] = json::Value(std::move(counters));
    }
    if (!report.traceHistograms.empty()) {
        json::Object hists;
        for (const auto &[key, buckets] : report.traceHistograms)
            hists[key] = numberArray(buckets);
        doc["trace_histograms"] = json::Value(std::move(hists));
    }
    if (report.criticalPathNs > 0.0) {
        doc["trace_exposed_comm_per_dim_ns"] =
            numberArray(report.traceExposedCommPerDim);
        doc["bottleneck_link"] = json::Value(report.bottleneckLink);
    }
    return json::Value(std::move(doc));
}

Report
reportFromJson(const json::Value &doc)
{
    Report report;
    report.workload = doc.getString("workload", "");
    for (const ReportMetricInfo &m : reportMetrics()) {
        if (m.json != ReportMetricInfo::NoJson)
            m.set(report, doc.getNumber(m.name, 0.0));
    }
    if (doc.has("average"))
        report.average = breakdownFromJson(doc.at("average"));
    if (doc.has("per_npu")) {
        for (const json::Value &v : doc.at("per_npu").asArray())
            report.perNpu.push_back(breakdownFromJson(v));
    }
    if (doc.has("bytes_per_dim"))
        report.bytesPerDim = numbersFrom<double>(doc.at("bytes_per_dim"));
    if (doc.has("busy_time_per_dim_ns"))
        report.busyTimePerDim =
            numbersFrom<double>(doc.at("busy_time_per_dim_ns"));
    if (doc.has("links_per_dim"))
        report.linksPerDim = numbersFrom<int>(doc.at("links_per_dim"));
    if (doc.has("footprint")) {
        for (const auto &[name, v] : doc.at("footprint").asObject())
            report.footprintBySubsystem.emplace_back(
                name, static_cast<size_t>(v.asNumber()));
    }
    if (doc.has("trace_counters")) {
        for (const auto &[key, v] :
             doc.at("trace_counters").asObject())
            report.traceCounters[key] = v.asNumber();
    }
    if (doc.has("trace_exposed_comm_per_dim_ns"))
        report.traceExposedCommPerDim =
            numbersFrom<double>(doc.at("trace_exposed_comm_per_dim_ns"));
    report.bottleneckLink = doc.getString("bottleneck_link", "");
    if (doc.has("trace_histograms")) {
        for (const auto &[key, v] :
             doc.at("trace_histograms").asObject())
            report.traceHistograms[key] = numbersFrom<uint64_t>(v);
    }
    return report;
}

} // namespace astra
