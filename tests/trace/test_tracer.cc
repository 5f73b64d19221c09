/**
 * @file
 * Tracing & introspection layer tests (docs/trace.md):
 *
 *  - Config parsing: path-qualified rejection of unknown keys, bad
 *    detail names, negative bucket widths; JSON round-trip.
 *  - Chrome trace-event export: valid JSON shape, required keys per
 *    phase, time-sorted events (hence per-(pid,tid) monotonic
 *    timestamps), strict nesting on collective-instance tracks and
 *    chunk phases contained in an instance window.
 *  - The observational contract: simulated results are bit-identical
 *    with tracing off vs `detail: full` on all three backends, and
 *    across sweep thread counts with tracing enabled.
 *  - Self-profiling counters flowing into the Report; unclosed spans
 *    dropped at export and counted.
 *  - Per-link utilization series semantics (fractions in [0, 1]).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "astra/simulator.h"
#include "common/json.h"
#include "common/logging.h"
#include "sweep/result_store.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "topology/topology.h"
#include "trace/tracer.h"
#include "workload/builders.h"

namespace astra {
namespace trace {
namespace {

TEST(TraceConfigJson, Parses)
{
    TraceConfig cfg = traceConfigFromJson(
        json::parse(R"({"file": "t.json", "detail": "full",
                        "utilization_bucket_ns": 500,
                        "utilization_file": "u.csv"})"),
        "trace");
    EXPECT_EQ(cfg.file, "t.json");
    EXPECT_EQ(cfg.detail, Detail::Full);
    EXPECT_EQ(cfg.utilizationBucketNs, 500.0);
    EXPECT_EQ(cfg.utilizationFile, "u.csv");
    EXPECT_TRUE(cfg.enabled());
}

TEST(TraceConfigJson, RejectsBadDocuments)
{
    // Unknown key (typo'd "detail").
    EXPECT_THROW(traceConfigFromJson(
                     json::parse(R"({"detial": "full"})"), "trace"),
                 FatalError);
    // Unknown detail level.
    EXPECT_THROW(traceConfigFromJson(
                     json::parse(R"({"detail": "verbose"})"), "trace"),
                 FatalError);
    // Negative bucket width.
    EXPECT_THROW(
        traceConfigFromJson(
            json::parse(R"({"utilization_bucket_ns": -1})"), "trace"),
        FatalError);
    // Not an object.
    EXPECT_THROW(traceConfigFromJson(json::parse(R"([1, 2])"), "trace"),
                 FatalError);
}

/** Small contention-heavy run that exercises instance spans, chunk
 *  phases, message lifetimes, and rate segments: chunked All-Reduce
 *  on a two-level topology, flow backend. */
Report
runTraced(Detail detail, const std::string &file,
          NetworkBackendKind backend = NetworkBackendKind::Flow,
          double bucket_ns = 0.0, Simulator **keep = nullptr)
{
    static std::vector<std::unique_ptr<Simulator>> kept;
    Topology topo({{BlockType::Ring, 4, 100.0, 300.0},
                   {BlockType::Switch, 2, 50.0, 500.0}});
    SimulatorConfig cfg;
    cfg.backend = backend;
    cfg.sys.collectiveChunks = 4;
    cfg.trace.detail = detail;
    cfg.trace.file = file;
    cfg.trace.utilizationBucketNs = bucket_ns;
    auto sim = std::make_unique<Simulator>(topo, cfg);
    Workload wl =
        buildSingleCollective(topo, CollectiveType::AllReduce, 4e6);
    Report report = sim->run(wl);
    if (keep != nullptr) {
        kept.push_back(std::move(sim));
        *keep = kept.back().get();
    }
    return report;
}

TEST(ChromeTraceExport, StructureAndOrdering)
{
    const std::string path = "test_trace_export.json";
    runTraced(Detail::Full, path);
    json::Value doc = json::parseFile(path);
    std::remove(path.c_str());

    ASSERT_TRUE(doc.isObject());
    const json::Array &events = doc.at("traceEvents").asArray();
    ASSERT_GT(events.size(), 100u);

    double prev_ts = -1.0;
    size_t timed = 0;
    for (const json::Value &ev : events) {
        ASSERT_TRUE(ev.isObject());
        const std::string ph = ev.at("ph").asString();
        ASSERT_TRUE(ph == "X" || ph == "i" || ph == "M") << ph;
        EXPECT_TRUE(ev.has("name"));
        EXPECT_TRUE(ev.has("pid"));
        EXPECT_TRUE(ev.has("tid"));
        if (ph == "M")
            continue; // display metadata carries no timestamp.
        ++timed;
        EXPECT_TRUE(ev.has("cat"));
        const double ts = ev.at("ts").asNumber();
        EXPECT_GE(ts, 0.0);
        // The writer sorts by timestamp at export, which implies
        // monotonic timestamps on every (pid, tid) track.
        EXPECT_GE(ts, prev_ts);
        prev_ts = ts;
        if (ph == "X")
            EXPECT_GE(ev.at("dur").asNumber(), 0.0);
        else
            EXPECT_FALSE(ev.has("dur"));
    }
    EXPECT_GT(timed, 100u);
}

TEST(ChromeTraceExport, CollectiveSpansNest)
{
    const std::string path = "test_trace_nesting.json";
    runTraced(Detail::Full, path);
    json::Value doc = json::parseFile(path);
    std::remove(path.c_str());

    // Collective-instance windows (dedicated tracks at kCollTidBase)
    // and per-rank chunk-phase spans.
    std::map<int64_t, std::vector<std::pair<double, double>>> instTracks;
    std::vector<std::pair<double, double>> instances;
    std::vector<std::pair<double, double>> phases;
    for (const json::Value &ev : doc.at("traceEvents").asArray()) {
        if (ev.at("ph").asString() != "X")
            continue;
        if (ev.at("cat").asString() != "coll")
            continue;
        const int64_t tid = ev.at("tid").asInt();
        const double t0 = ev.at("ts").asNumber();
        const double t1 = t0 + ev.at("dur").asNumber();
        if (tid >= Tracer::kCollTidBase) {
            instTracks[tid].push_back({t0, t1});
            instances.push_back({t0, t1});
        } else {
            phases.push_back({t0, t1});
        }
    }
    ASSERT_FALSE(instances.empty());
    ASSERT_FALSE(phases.empty());

    // Instance tracks nest strictly (one slot = one track, so spans
    // on a track are sequential or properly contained).
    for (const auto &kv : instTracks) {
        std::vector<double> stack; // open span end times.
        for (const auto &span : kv.second) {
            while (!stack.empty() && stack.back() <= span.first + 1e-9)
                stack.pop_back();
            if (!stack.empty())
                EXPECT_LE(span.second, stack.back() + 1e-6);
            stack.push_back(span.second);
        }
    }
    // Every chunk phase falls inside some collective instance window.
    for (const auto &phase : phases) {
        bool contained = false;
        for (const auto &inst : instances)
            contained = contained || (inst.first - 1e-6 <= phase.first &&
                                      phase.second <= inst.second + 1e-6);
        EXPECT_TRUE(contained)
            << "phase [" << phase.first << ", " << phase.second
            << ") outside every instance window";
    }
}

TEST(TraceBitIdentity, OffVsFullOnEveryBackend)
{
    for (NetworkBackendKind backend :
         {NetworkBackendKind::Analytical, NetworkBackendKind::Flow,
          NetworkBackendKind::Packet}) {
        Report off = runTraced(Detail::Off, "", backend);
        Report full = runTraced(Detail::Full, "", backend);
        // Bit-identical, not approximately equal: the tracer is
        // observational and must not perturb simulation state.
        EXPECT_EQ(off.totalTime, full.totalTime);
        EXPECT_EQ(off.events, full.events);
        EXPECT_EQ(off.messages, full.messages);
        ASSERT_EQ(off.perNpu.size(), full.perNpu.size());
        for (size_t i = 0; i < off.perNpu.size(); ++i) {
            EXPECT_EQ(off.perNpu[i].compute, full.perNpu[i].compute);
            EXPECT_EQ(off.perNpu[i].exposedComm,
                      full.perNpu[i].exposedComm);
            EXPECT_EQ(off.perNpu[i].idle, full.perNpu[i].idle);
        }
    }
}

TEST(TraceSweepThreads, DeterministicWithTracingOn)
{
    sweep::SweepSpec spec = sweep::SweepSpec::fromJson(json::parse(R"json({
      "name": "trace-sweep-test",
      "base": {
        "topology": "Ring(4,100)_Switch(2,50)",
        "backend": "flow",
        "trace": {"detail": "full"},
        "workload": {"kind": "collective", "collective": "all-reduce",
                     "bytes": 1048576}
      },
      "axes": [
        {"path": "workload.bytes", "values": [262144, 1048576]},
        {"path": "backend", "values": ["analytical", "flow"]}
      ]
    })json"));

    std::string baseline;
    for (int threads : {1, 2, 8}) {
        sweep::BatchOptions opts;
        opts.threads = threads;
        sweep::BatchOutcome outcome = sweep::runBatch(spec, opts);
        EXPECT_EQ(outcome.failures, 0u);
        sweep::ResultStore store =
            sweep::ResultStore::fromBatch(spec, outcome);
        std::string bytes = store.toCsv() + store.toJson().dump(2);
        if (baseline.empty())
            baseline = bytes;
        else
            EXPECT_EQ(bytes, baseline) << threads << " threads";
    }
}

TEST(TraceReportCounters, FullRunFillsThem)
{
    Report off = runTraced(Detail::Off, "");
    // An untraced report carries no counters at all — its JSON stays
    // byte-identical to a build without tracing.
    EXPECT_TRUE(off.traceCounters.empty());
    EXPECT_TRUE(off.traceHistograms.empty());
    EXPECT_TRUE(off.traceWallSeconds.empty());

    Report full = runTraced(Detail::Full, "");
    ASSERT_TRUE(full.traceCounters.count("trace_events"));
    EXPECT_GT(full.traceCounters.at("trace_events"), 0.0);
    // Bucket-size stats accrue on every bucket activation; queue-depth
    // stats are sampled (every 1024th event) and this run is too small
    // to guarantee a sample.
    ASSERT_TRUE(full.traceHistograms.count("event_bucket_size_log2"));
    EXPECT_FALSE(full.traceHistograms.at("event_bucket_size_log2").empty());

    // Deterministic counters must round-trip through report JSON.
    Report back = reportFromJson(reportToJson(full));
    EXPECT_EQ(back.traceCounters, full.traceCounters);
    EXPECT_EQ(back.traceHistograms, full.traceHistograms);
}

TEST(TraceUnclosedSpans, DroppedAtExportAndCounted)
{
    TraceConfig cfg;
    cfg.detail = Detail::Full;
    Tracer tracer(cfg);
    tracer.span(0, 0, "test", "closed", 10.0, 5.0);
    Tracer::SpanId open =
        tracer.beginSpan(0, 0, "test", "never-closed", 20.0);
    Tracer::SpanId closed =
        tracer.beginSpan(0, 0, "test", "closed-late", 30.0);
    tracer.endSpan(closed, 40.0);
    (void)open; // never closed on purpose.

    const std::string path = "test_trace_unclosed.json";
    tracer.writeChromeTrace(path);
    json::Value doc = json::parseFile(path);
    std::remove(path.c_str());

    std::vector<std::string> names;
    for (const json::Value &ev : doc.at("traceEvents").asArray())
        if (ev.at("ph").asString() == "X")
            names.push_back(ev.at("name").asString());
    EXPECT_EQ(names, (std::vector<std::string>{"closed", "closed-late"}));
    ASSERT_TRUE(tracer.counters().values.count("trace_unclosed_spans"));
    EXPECT_EQ(tracer.counters().values.at("trace_unclosed_spans"), 1.0);
}

TEST(TraceUtilization, FractionsAreSane)
{
    Simulator *sim = nullptr;
    runTraced(Detail::Spans, "", NetworkBackendKind::Flow, 1000.0, &sim);
    ASSERT_NE(sim, nullptr);
    ASSERT_NE(sim->tracer(), nullptr);

    json::Value util = sim->tracer()->utilizationJson();
    EXPECT_EQ(util.at("bucket_ns").asNumber(), 1000.0);
    const json::Array &links = util.at("links").asArray();
    ASSERT_FALSE(links.empty());
    double peak = 0.0;
    for (const json::Value &link : links) {
        EXPECT_FALSE(link.at("link").asString().empty());
        for (const json::Value &frac :
             link.at("busy_fraction").asArray()) {
            EXPECT_GE(frac.asNumber(), 0.0);
            EXPECT_LE(frac.asNumber(), 1.0 + 1e-9);
            peak = std::max(peak, frac.asNumber());
        }
    }
    // A chunked all-reduce saturates its bottleneck for whole buckets.
    EXPECT_GT(peak, 0.5);
}

} // namespace
} // namespace trace
} // namespace astra
