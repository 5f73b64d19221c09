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
 *    across sweep thread counts with tracing enabled; the tracing
 *    bench's hier_allreduce_256 keeps its committed time, event count
 *    and recorded-event counts at every detail level.
 *  - Self-profiling counters flowing into the Report; unclosed spans
 *    dropped at export and counted.
 *  - Per-link utilization series semantics (fractions in [0, 1]).
 *  - Golden export: a hand-built timeline whose Chrome trace and
 *    utilization files must match literals byte for byte; the
 *    analysis ingest visits events in the same order; the number
 *    formatter matches printf; write errors are user errors.
 */
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "astra/simulator.h"
#include "bench_util.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/output_file.h"
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
            if (!stack.empty()) {
                EXPECT_LE(span.second, stack.back() + 1e-6);
            }
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

TEST(TraceBitIdentity, HierAllreduce256MatchesUntracedAtEveryDetail)
{
    const std::pair<Detail, uint64_t> levels[] = {
        {Detail::Off, 0}, {Detail::Spans, 4}, {Detail::Full, 209924}};
    for (auto [detail, recorded] : levels) {
        SCOPED_TRACE(testing::Message()
                     << "detail " << static_cast<int>(detail));
        bench::HierAllreduce256 run(NetworkBackendKind::Flow);
        TraceConfig cfg;
        cfg.detail = detail;
        Tracer tracer(cfg);
        if (detail != Detail::Off) {
            run.net->setTracer(&tracer);
            run.engine.setTracer(&tracer, 0);
        }
        run.run();
        EXPECT_NEAR(run.eq.now(), 87250.0, 5e-4);
        EXPECT_EQ(run.eq.executedEvents(), 261315u);
        EXPECT_EQ(tracer.eventCount(), recorded);
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

TEST(TraceUtilization, ImpliedBucketWidthBoundsLongRuns)
{
    // A 1.5 s all-reduce with a utilization file and no bucket width:
    // 1 us buckets would give 1.5M per link, so the width doubles
    // until every series fits in 65,536 buckets. The busy time each
    // link records is the same, only binned coarser.
    const std::string path = testing::TempDir() + "/implied_width.json";
    Topology topo({{BlockType::Ring, 4, 100.0, 500.0}});
    SimulatorConfig cfg;
    cfg.sys.collectiveChunks = 4;
    cfg.trace.detail = Detail::Spans;
    cfg.trace.analysis = true; // exact per-link busy totals.
    cfg.trace.utilizationFile = path;
    Simulator sim(topo, cfg);
    Report report = sim.run(
        buildSingleCollective(topo, CollectiveType::AllReduce, 1e11));
    ASSERT_GT(report.totalTime, 1e9);

    json::Value util = json::parseFile(path);
    std::remove(path.c_str());
    double width = util.at("bucket_ns").asNumber();
    EXPECT_GT(width, 1000.0);
    std::map<std::string, double> busy;
    for (const json::Value &link : util.at("links").asArray()) {
        const json::Array &series = link.at("busy_fraction").asArray();
        EXPECT_LE(series.size(), 65536u);
        double sum = 0.0;
        for (const json::Value &frac : series)
            sum += frac.asNumber() * width;
        busy[link.at("link").asString()] = sum;
    }
    const Tracer &tracer = *sim.tracer();
    size_t busy_links = 0;
    for (size_t i = 0; i < tracer.linkCount(); ++i) {
        double total = tracer.linkBusyTotalNs(i);
        if (total <= 0.0)
            continue;
        ++busy_links;
        ASSERT_TRUE(busy.count(tracer.linkLabel(i))) << i;
        EXPECT_NEAR(busy[tracer.linkLabel(i)], total, total * 1e-12) << i;
    }
    EXPECT_GT(busy_links, 0u);
    EXPECT_EQ(busy.size(), busy_links);
}

/** File contents, byte for byte. */
std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

TraceConfig
goldenConfig()
{
    TraceConfig cfg;
    cfg.detail = Detail::Full;
    cfg.utilizationBucketNs = 100.0;
    return cfg;
}

/** A hand-built timeline covering every export path: escaped process
 *  and thread names, fmt and string names with quotes, backslashes,
 *  control bytes and UTF-8, instants, an unclosed span, equal
 *  timestamps on different tracks, tracks recorded out of time order,
 *  %.6f rounding edges, a name past the 127-byte limit, and link
 *  occupancy plus utilization. */
void
recordGolden(Tracer &t)
{
    t.processName(1, "job \"a\"\\b\n");
    t.processName(0, "fabric");
    t.threadName(1, 0, "rank\t0\x01");
    t.threadName(0, 2, "caf\xc3\xa9");
    t.registerLink(1, "sw0 \"up\"\\\x1f");
    t.registerLink(0, "L0");
    // Equal timestamps on four tracks: the tie goes to recording order.
    t.span(0, 0, "net", "msg %lld->%lld d%lld", 100.0, 50.0, 0, 1, 2);
    t.span(0, 1, "coll", "q\"%lld\\ \n\t\x01 caf\xc3\xa9", 100.0, 25.0, 7);
    t.spanStr(1, 0, "node", "n\"1\"\\\n\t\x01 caf\xc3\xa9", 100.0, 10.0);
    t.span(0, 2, "net", "msg %lld->%lld d%d", 100.0, 5.0, 3, 4, 1);
    t.instant(0, Tracer::kLifecycleTid, "fault", "straggler n%lld x%lld%%",
              150.0, 3, 2);
    t.instantStr(1, Tracer::kLifecycleTid, "job", "start \"j\"\x02", 0.0);
    Tracer::SpanId open =
        t.beginSpan(1, Tracer::kCollTidBase, "coll", "never \"closed\"", 5.0);
    (void)open;
    Tracer::SpanId inst =
        t.beginSpan(1, Tracer::kCollTidBase + 1, "coll", "inst\\1", 5.0);
    // One track recorded out of time order (with a tie inside it).
    t.span(0, 3, "net", "late %lld", 300.0, 1.0, 1);
    t.span(0, 3, "net", "early %lld", 200.0, 1.0, 2);
    t.span(0, 3, "net", "tie %lld", 200.0, 2.0, 3);
    t.span(0, 3, "net", "earliest", 50.0, 1.0);
    t.endSpan(inst, 400.0);
    // %.6f rounding edges, as printed microseconds and as raw ns.
    t.span(0, 4, "edge", "e%lld", 0.5, 0.0005, 1);
    t.span(0, 4, "edge", "e%lld", 123456789.5, 123456.7895, 2);
    t.span(0, 4, "edge", "e%lld", 9007199254740992.0 * 1000.0,
           9007199254740992.0, 3);
    t.span(0, 4, "edge", "e%lld", 1e18, 1e15, 4);
    t.instant(0, 4, "edge", "e%lld", 0.0005, 5);
    t.instant(0, 4, "edge", "e%lld", 123456.7895, 6);
    t.span(0, 5, "flow", "f%lld->%lld %lldMB/s", 7.0, 3.0, -12, 34,
           -9223372036854775807LL - 1);
    // A formatted name longer than the 127-byte name limit.
    t.span(0, 5, "flow",
           "0123456789012345678901234567890123456789012345678901234567890"
           "1234567890123456789012345678901234567890123456789012345678901"
           "23456789 %lld", 8.0, 1.0, 123456789);
    // Link occupancy: contiguous busy intervals coalesce into a span.
    t.linkBusy(0, 10.0, 20.0);
    t.linkBusy(0, 20.0, 30.0);
    t.linkBusy(0, 60.0, 70.0);
    t.linkBusy(1, 40.0, 250.0, 0.5);
    t.linkBusy(1, 260.0, 290.0);
}

TEST(ChromeTraceGolden, ExportIsByteIdentical)
{
    Tracer t(goldenConfig());
    recordGolden(t);
    const std::string path = "test_trace_golden.json";
    t.writeChromeTrace(path);
    const std::string bytes = readBytes(path);
    std::remove(path.c_str());
    const std::string expected =
        "{\"displayTimeUnit\":\"ns\",\n"
        "\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"fabric\"}},\n"
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"job \\\"a\\\"\\\\b\\n\"}},\n"
        "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":2,\"args\":{\"name\":\"caf\xc3""\xa9""\"}},\n"
        "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":1048576,\"args\":{\"name\":\"L0\"}},\n"
        "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":1048577,\"args\":{\"name\":\"sw0 \\\"up\\\"\\\\\\u001f\"}},\n"
        "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"rank\\t0\\u0001\"}},\n"
        "{\"ph\":\"i\",\"name\":\"start \\\"j\\\"\\u0002\",\"cat\":\"job\",\"pid\":1,\"tid\":1048575,\"ts\":0.000000,\"s\":\"t\"},\n"
        "{\"ph\":\"i\",\"name\":\"e5\",\"cat\":\"edge\",\"pid\":0,\"tid\":4,\"ts\":0.000000,\"s\":\"t\"},\n"
        "{\"ph\":\"X\",\"name\":\"e1\",\"cat\":\"edge\",\"pid\":0,\"tid\":4,\"ts\":0.000500,\"dur\":0.000000},\n"
        "{\"ph\":\"X\",\"name\":\"inst\\\\1\",\"cat\":\"coll\",\"pid\":1,\"tid\":4194305,\"ts\":0.005000,\"dur\":0.395000},\n"
        "{\"ph\":\"X\",\"name\":\"f-12->34 -9223372036854775808MB/s\",\"cat\":\"flow\",\"pid\":0,\"tid\":5,\"ts\":0.007000,\"dur\":0.003000},\n"
        "{\"ph\":\"X\",\"name\":\"0123456789012345678901234567890123456789012345678901234567890123456789012345678901234567890123456789012345678901234567890123456\",\"cat\":\"flow\",\"pid\":0,\"tid\":5,\"ts\":0.008000,\"dur\":0.001000},\n"
        "{\"ph\":\"X\",\"name\":\"busy\",\"cat\":\"link\",\"pid\":0,\"tid\":1048576,\"ts\":0.010000,\"dur\":0.020000},\n"
        "{\"ph\":\"X\",\"name\":\"earliest\",\"cat\":\"net\",\"pid\":0,\"tid\":3,\"ts\":0.050000,\"dur\":0.001000},\n"
        "{\"ph\":\"X\",\"name\":\"busy\",\"cat\":\"link\",\"pid\":0,\"tid\":1048576,\"ts\":0.060000,\"dur\":0.010000},\n"
        "{\"ph\":\"X\",\"name\":\"msg 0->1 d2\",\"cat\":\"net\",\"pid\":0,\"tid\":0,\"ts\":0.100000,\"dur\":0.050000},\n"
        "{\"ph\":\"X\",\"name\":\"q\\\"7\\\\ \\n\\t\\u0001 caf\xc3""\xa9""\",\"cat\":\"coll\",\"pid\":0,\"tid\":1,\"ts\":0.100000,\"dur\":0.025000},\n"
        "{\"ph\":\"X\",\"name\":\"n\\\"1\\\"\\\\\\n\\t\\u0001 caf\xc3""\xa9""\",\"cat\":\"node\",\"pid\":1,\"tid\":0,\"ts\":0.100000,\"dur\":0.010000},\n"
        "{\"ph\":\"X\",\"name\":\"msg 3->4 d1\",\"cat\":\"net\",\"pid\":0,\"tid\":2,\"ts\":0.100000,\"dur\":0.005000},\n"
        "{\"ph\":\"i\",\"name\":\"straggler n3 x2%\",\"cat\":\"fault\",\"pid\":0,\"tid\":1048575,\"ts\":0.150000,\"s\":\"t\"},\n"
        "{\"ph\":\"X\",\"name\":\"early 2\",\"cat\":\"net\",\"pid\":0,\"tid\":3,\"ts\":0.200000,\"dur\":0.001000},\n"
        "{\"ph\":\"X\",\"name\":\"tie 3\",\"cat\":\"net\",\"pid\":0,\"tid\":3,\"ts\":0.200000,\"dur\":0.002000},\n"
        "{\"ph\":\"X\",\"name\":\"busy\",\"cat\":\"link\",\"pid\":0,\"tid\":1048577,\"ts\":0.260000,\"dur\":0.030000},\n"
        "{\"ph\":\"X\",\"name\":\"late 1\",\"cat\":\"net\",\"pid\":0,\"tid\":3,\"ts\":0.300000,\"dur\":0.001000},\n"
        "{\"ph\":\"i\",\"name\":\"e6\",\"cat\":\"edge\",\"pid\":0,\"tid\":4,\"ts\":123.456789,\"s\":\"t\"},\n"
        "{\"ph\":\"X\",\"name\":\"e2\",\"cat\":\"edge\",\"pid\":0,\"tid\":4,\"ts\":123456.789500,\"dur\":123.456789},\n"
        "{\"ph\":\"X\",\"name\":\"e4\",\"cat\":\"edge\",\"pid\":0,\"tid\":4,\"ts\":1000000000000000.000000,\"dur\":1000000000000.000000},\n"
        "{\"ph\":\"X\",\"name\":\"e3\",\"cat\":\"edge\",\"pid\":0,\"tid\":4,\"ts\":9007199254740992.000000,\"dur\":9007199254740.992188}\n"
        "]}\n";
    EXPECT_EQ(bytes, expected);
    ASSERT_TRUE(t.counters().values.count("trace_unclosed_spans"));
    EXPECT_EQ(t.counters().values.at("trace_unclosed_spans"), 1.0);
}

TEST(ChromeTraceGolden, UtilizationIsByteIdentical)
{
    Tracer t(goldenConfig());
    recordGolden(t);
    const std::string csv_path = "test_trace_golden_util.csv";
    const std::string json_path = "test_trace_golden_util.json";
    t.writeUtilization(csv_path);
    t.writeUtilization(json_path);
    const std::string csv_bytes = readBytes(csv_path);
    const std::string json_bytes = readBytes(json_path);
    std::remove(csv_path.c_str());
    std::remove(json_path.c_str());
    const std::string csv =
        "link,bucket_start_ns,busy_fraction\n"
        "L0,0.000,0.300000\n"
        "sw0 \\\"up\\\"\\\\\\u001f,0.000,0.300000\n"
        "sw0 \\\"up\\\"\\\\\\u001f,100.000,0.500000\n"
        "sw0 \\\"up\\\"\\\\\\u001f,200.000,0.550000\n";
    const std::string json =
        "{\n"
        "  \"bucket_ns\": 100,\n"
        "  \"links\": [\n"
        "    {\n"
        "      \"busy_fraction\": [\n"
        "        0.29999999999999999\n"
        "      ],\n"
        "      \"link\": \"L0\"\n"
        "    },\n"
        "    {\n"
        "      \"busy_fraction\": [\n"
        "        0.29999999999999999,\n"
        "        0.5,\n"
        "        0.55000000000000004\n"
        "      ],\n"
        "      \"link\": \"sw0 \\\"up\\\"\\\\\\u001f\"\n"
        "    }\n"
        "  ]\n"
        "}\n";
    EXPECT_EQ(csv_bytes, csv);
    EXPECT_EQ(json_bytes, json);
}

TEST(TraceNameInterning, FootprintGrowsOnlyPerDistinctName)
{
    // Ten distinct dynamic names recorded a thousand times each, through
    // every name-taking call: the name table holds ten entries, and the
    // events fit in the first block, so the footprint never moves.
    Tracer t(goldenConfig());
    auto name_of = [](int i) { return "node " + std::to_string(i % 10); };
    for (int i = 0; i < 10; ++i)
        t.spanStr(0, 0, "node", name_of(i), double(i), 1.0);
    const size_t distinct = t.bytesInUse();
    for (int i = 10; i < 10000; ++i) {
        t.spanStr(0, 0, "node", name_of(i), double(i), 1.0);
        t.instantStr(0, 1, "job", name_of(i), double(i));
        t.endSpan(t.beginSpan(0, 2, "coll", name_of(i), double(i)),
                  double(i) + 1.0);
    }
    EXPECT_EQ(t.bytesInUse(), distinct);
    EXPECT_EQ(t.internName(name_of(3)), t.internName(name_of(13)));
    uint32_t id = t.internName(name_of(7));
    t.spanName(0, 3, "node", id, 0.0, 1.0);
    EXPECT_EQ(t.bytesInUse(), distinct);
    // New names are the only thing that grows it (capacity-based, so
    // not necessarily at every single one).
    for (int i = 0; i < 100; ++i)
        t.spanStr(0, 0, "node", "new name " + std::to_string(i), 0.0, 1.0);
    EXPECT_GT(t.bytesInUse(), distinct);

    size_t named = 0;
    t.visitEvents([&](const Tracer::ResolvedEvent &ev) {
        if (ev.name == "node 7")
            ++named;
    });
    // i = 7 once, i = 17 .. 9997 three times each, plus spanName().
    EXPECT_EQ(named, 1u + 3u * 999u + 1u);
}

TEST(ChromeTraceGolden, VisitEventsFollowsExportOrder)
{
    Tracer t(goldenConfig());
    recordGolden(t);
    const std::string path = "test_trace_visit_order.json";
    t.writeChromeTrace(path);
    json::Value doc = json::parseFile(path);
    std::remove(path.c_str());

    std::vector<std::string> exported;
    for (const json::Value &ev : doc.at("traceEvents").asArray())
        if (ev.at("ph").asString() != "M")
            exported.push_back(ev.at("name").asString());
    std::vector<std::string> visited;
    t.visitEvents([&](const Tracer::ResolvedEvent &ev) {
        if (!ev.open)
            visited.emplace_back(ev.name);
    });
    EXPECT_EQ(visited, exported);
}

TEST(TraceNumberFormat, FixedMatchesPrintf)
{
    // Rounding edges, exact ties (2^-7 * 10^6 = 7812.5), integers
    // around 2^53 and 2^64, subnormals, infinities and NaN.
    std::vector<double> values = {
        0.0, -0.0, 0.0005, 5e-7, 4.9999999999999998e-7, 0.0000015,
        0.0078125, 0.0234375, 123456.7895, 123.4567895, -123.4567895,
        -1e-9, 9007199254740992.0, 9007199254740.992, 1e15, 1e13,
        18446744073709.551, 18446744073709551615.0, 1e19, 1e300, 0.1,
        2.5, 1e-300, 4.9e-324, std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    // Uniform in [0, 1e13], half of them scaled down by up to 1e-19
    // so small magnitudes get as many draws as large ones.
    std::mt19937_64 rng(17);
    std::uniform_real_distribution<double> uniform(0.0, 1e13);
    for (int i = 0; i < 1000000; ++i) {
        double v = uniform(rng);
        values.push_back(i % 2 ? v : v / std::pow(10.0, i % 40 / 2));
    }
    // The doubles nearest to halfway between two outputs, where the
    // rounding of the exact binary value decides the last digit.
    std::uniform_int_distribution<int64_t> digits(0, int64_t(1) << 40);
    for (int i = 0; i < 100000; ++i) {
        double half = (double(digits(rng)) + 0.5) / (i % 2 ? 1e6 : 1e3);
        values.push_back(half);
        values.push_back(std::nextafter(half, 0.0));
        values.push_back(std::nextafter(half, 1e300));
    }

    // %.6f (the Chrome trace) and %.3f (the utilization CSV).
    char ours[kMaxFixedChars];
    char ref[kMaxFixedChars + 1];
    for (int precision : {6, 3}) {
        size_t mismatches = 0;
        for (double v : values) {
            std::string got(ours, appendFixed(ours, v, precision));
            std::snprintf(ref, sizeof(ref), "%.*f", precision, v);
            if (got != ref && mismatches++ == 0)
                ADD_FAILURE() << "%." << precision << "f of " << v
                              << ": " << got << " != " << ref;
        }
        EXPECT_EQ(mismatches, 0u) << "precision " << precision;
    }
}

TEST(TraceWriteErrors, FullDiskIsAUserError)
{
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full is absent";
    const std::string json_path = "test_trace_full_disk.json";
    std::remove(json_path.c_str());
    ASSERT_EQ(symlink("/dev/full", json_path.c_str()), 0);

    Tracer t(goldenConfig());
    recordGolden(t);
    auto expectUserError = [](const std::string &path, auto write) {
        try {
            write();
            ADD_FAILURE() << "writing " << path << " did not fail";
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(path), std::string::npos) << msg;
            EXPECT_NE(msg.find(std::strerror(ENOSPC)), std::string::npos)
                << msg;
        }
    };
    expectUserError("/dev/full",
                    [&] { t.writeChromeTrace("/dev/full"); });
    expectUserError("/dev/full",
                    [&] { t.writeUtilization("/dev/full"); });
    expectUserError(json_path, [&] { t.writeUtilization(json_path); });
    std::remove(json_path.c_str());
}

} // namespace
} // namespace trace
} // namespace astra
