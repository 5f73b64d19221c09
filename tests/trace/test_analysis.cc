/**
 * @file
 * Trace-analytics tests (docs/trace.md, "Analysis"):
 *
 *  - Critical-path invariants: segments tile [0, path length] exactly
 *    and sum to it, the path never exceeds the simulated total time,
 *    and on a serial-chain workload it *equals* the total time with
 *    every segment a compute span.
 *  - Cross-run diffing: identical runs diff to exactly zero; flow vs
 *    analytical on the contention-heavy hier_allreduce_256 scenario
 *    attributes the known congestion divergence to chunk-phase spans;
 *    the `trace_analyze --diff` JSON report of smoke_trace_runner
 *    keeps its delta arithmetic and |delta| order.
 *  - Determinism: repeated analyses are byte-identical, and sweeps
 *    with analysis enabled render identical stores at 1/2/8 threads
 *    (with the critical_path_ns column populated).
 *  - The observational contract: enabling analysis leaves simulated
 *    results bit-identical on all three backends.
 *  - Edge cases: empty traces, zero-length spans, unclosed-span
 *    drops, single-rank runs, utilization buckets larger than the
 *    whole simulation, link ranking with no utilization series (the
 *    tracer stays small), and the Chrome-file loader round trip.
 *  - Flow rate-segment coalescing epsilon: configurable, validated,
 *    and monotone (tighter epsilon => at least as many segments).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "astra/simulator.h"
#include "bench_util.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "common/units.h"
#include "sweep/result_store.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "topology/topology.h"
#include "trace/analysis/analysis.h"
#include "trace/analysis/diff.h"
#include "trace/tracer.h"
#include "workload/builders.h"

namespace astra {
namespace trace {
namespace analysis {
namespace {

/** The hier_allreduce_256 scenario (bench/bench_util.h) traced at
 *  full detail. Contention-heavy, so flow and analytical timing
 *  genuinely diverge. */
TraceData
runHierAllreduce(NetworkBackendKind backend, double *sim_time_ns)
{
    bench::HierAllreduce256 run(backend);
    TraceConfig cfg;
    cfg.detail = Detail::Full;
    Tracer tracer(cfg);
    run.net->setTracer(&tracer);
    run.engine.setTracer(&tracer, 0);
    run.run();
    if (sim_time_ns != nullptr)
        *sim_time_ns = run.eq.now();
    return TraceData::fromTracer(tracer);
}

/** Check the tiling invariant: segments cover [0, lengthNs] with no
 *  gaps or overlaps and sum to the length. */
void
expectTiles(const CriticalPath &path)
{
    ASSERT_FALSE(path.segments.empty());
    EXPECT_NEAR(path.segments.front().startNs, 0.0, 1e-3);
    EXPECT_NEAR(path.segments.back().endNs, path.lengthNs, 1e-3);
    double sum = 0.0;
    for (size_t i = 0; i < path.segments.size(); ++i) {
        const PathSegment &seg = path.segments[i];
        EXPECT_GE(seg.durNs(), 0.0);
        sum += seg.durNs();
        if (i > 0) {
            EXPECT_NEAR(seg.startNs, path.segments[i - 1].endNs, 1e-3)
                << "gap/overlap before segment " << i;
        }
    }
    EXPECT_NEAR(sum, path.lengthNs, 1e-3);
}

TEST(CriticalPath, SerialChainEqualsTotalTime)
{
    // A pure dependency chain of compute nodes on rank 0 (rank 1
    // idle): nothing overlaps anything, so the critical path IS the
    // whole run and every segment is one compute span.
    Topology topo({{BlockType::Ring, 2, 100.0, 300.0}});
    Workload wl;
    wl.name = "serial-chain";
    wl.graphs.resize(2);
    for (NpuId n = 0; n < 2; ++n)
        wl.graphs[size_t(n)].npu = n;
    for (int i = 0; i < 5; ++i) {
        EtNode node = EtNode::compute(1e9, 1e6);
        node.name = wl.internName("step" + std::to_string(i));
        if (i > 0)
            wl.graphs[0].add(node, {uint32_t(i - 1)});
        else
            wl.graphs[0].add(node);
    }

    SimulatorConfig cfg;
    cfg.trace.detail = Detail::Full;
    Simulator sim(topo, cfg);
    Report report = sim.run(wl);
    ASSERT_NE(sim.tracer(), nullptr);
    TraceData data = TraceData::fromTracer(*sim.tracer());
    CriticalPath path = extractCriticalPath(data);

    EXPECT_NEAR(path.lengthNs, report.totalTime, 1e-3);
    expectTiles(path);
    ASSERT_EQ(path.segments.size(), 5u);
    for (const PathSegment &seg : path.segments) {
        EXPECT_FALSE(seg.isWait());
        EXPECT_EQ(seg.tid, 0);
        EXPECT_EQ(seg.kind.rfind("compute:", 0), 0u) << seg.kind;
    }
    EXPECT_NEAR(path.waitNs, 0.0, 1e-3);
}

TEST(CriticalPath, InvariantsOnContendedRun)
{
    double sim_time = 0.0;
    TraceData data =
        runHierAllreduce(NetworkBackendKind::Flow, &sim_time);
    CriticalPath path = extractCriticalPath(data);

    // Bounded by the simulated total time (the path is a dependent
    // chain inside the run), and ends exactly at the last rank event.
    EXPECT_GT(path.lengthNs, 0.0);
    EXPECT_LE(path.lengthNs, sim_time + 1e-3);
    expectTiles(path);

    // Rollups: slack is non-negative and on-path time never exceeds
    // recorded time per kind.
    ASSERT_FALSE(path.rollup.empty());
    for (const KindRollup &row : path.rollup) {
        EXPECT_GE(row.slackNs, -1e-6) << row.kind;
        EXPECT_LE(row.onPathNs, row.totalNs + 1e-3) << row.kind;
    }
    // A contended chunked all-reduce's path crosses ranks via
    // messages and runs through chunk phases.
    bool has_comm = false;
    for (const PathSegment &seg : path.segments)
        has_comm = has_comm || seg.kind.rfind("net:", 0) == 0 ||
                   seg.kind.rfind("coll:", 0) == 0;
    EXPECT_TRUE(has_comm);
}

TEST(TraceDiff, IdenticalRunsDiffToZero)
{
    TraceData a = runHierAllreduce(NetworkBackendKind::Flow, nullptr);
    TraceData b = runHierAllreduce(NetworkBackendKind::Flow, nullptr);
    TraceDiff diff = diffTraces(a, b);
    EXPECT_EQ(diff.totalDeltaNs, 0.0);
    for (const DiffKindRow &row : diff.kinds) {
        EXPECT_EQ(row.deltaNs, 0.0) << row.kind;
        EXPECT_EQ(row.matchedDeltaNs, 0.0) << row.kind;
        EXPECT_EQ(row.countA, row.countB) << row.kind;
        EXPECT_EQ(row.matched, row.countA) << row.kind;
    }
}

TEST(TraceDiff, FlowVsAnalyticalAttributesCongestionToChunkPhases)
{
    // The flow backend resolves the contention the analytical model
    // ignores, so hier_allreduce_256 runs measurably longer there
    // (the known divergence pinned by bench_flow_vs_packet). The
    // diff must attribute that divergence to communication — the
    // top-contributing span kind is a chunk phase (or its mirror,
    // the message transport), never compute.
    double t_ana = 0.0, t_flow = 0.0;
    TraceData a =
        runHierAllreduce(NetworkBackendKind::Analytical, &t_ana);
    TraceData b = runHierAllreduce(NetworkBackendKind::Flow, &t_flow);
    TraceDiff diff = diffTraces(a, b);

    // Pin the scenario's divergence band: flow is slower by roughly
    // 14% (congestion), not faster and not wildly off.
    ASSERT_GT(t_ana, 0.0);
    double rel = (t_flow - t_ana) / t_ana;
    EXPECT_GT(rel, 0.05);
    EXPECT_LT(rel, 0.30);
    EXPECT_NEAR(diff.totalDeltaNs, t_flow - t_ana, 1e-3);

    ASSERT_FALSE(diff.kinds.empty());
    // Top contributor: chunk-phase spans (cat "coll", name "c# p#
    // d<k>") — the per-rank, per-dimension slices of the collective
    // where queueing shows up first.
    const DiffKindRow &top = diff.kinds.front();
    EXPECT_EQ(top.kind.rfind("coll:c#", 0), 0u)
        << "top kind: " << top.kind;
    EXPECT_GT(top.deltaNs, 0.0);
}

TEST(TraceDiff, ReportKeepsItsArithmetic)
{
    // The trace_analyze --diff report of smoke_trace_runner
    // (tests/cli/smoke.cmake): trace_runner on R(4,150)_SW(2,25) vs
    // the same fabric with dim-0 bandwidth halved.
    json::Value doc = json::parseFile(std::string(ASTRA_SMOKE_DIR) +
                                      "/trace_runner/diff-report.json");
    EXPECT_EQ(doc.at("kind").asString(), "astra-trace-diff");
    const double end_a = doc.at("end_a_ns").asNumber();
    const double end_b = doc.at("end_b_ns").asNumber();
    EXPECT_GE(end_a, 0.0);
    EXPECT_GE(end_b, 0.0);
    EXPECT_NEAR(doc.at("total_delta_ns").asNumber(), end_b - end_a, 1e-3);

    const json::Array &rows = doc.at("kinds").asArray();
    EXPECT_GE(rows.size(), 3u);
    for (size_t i = 0; i < rows.size(); ++i) {
        const json::Value &row = rows[i];
        const std::string kind = row.at("kind").asString();
        const double count_a = row.at("count_a").asNumber();
        const double count_b = row.at("count_b").asNumber();
        const double total_a = row.at("total_a_ns").asNumber();
        const double total_b = row.at("total_b_ns").asNumber();
        const double delta = row.at("delta_ns").asNumber();
        EXPECT_GE(std::min({count_a, count_b, total_a, total_b}), 0.0)
            << kind;
        EXPECT_LE(row.at("matched").asNumber(), std::min(count_a, count_b))
            << kind;
        EXPECT_TRUE(row.has("matched_delta_ns")) << kind;
        EXPECT_NEAR(delta, total_b - total_a, 1e-3) << kind;
        if (i == 0)
            continue;
        // Sorted by |delta_ns| descending, ties by kind.
        const json::Value &prev = rows[i - 1];
        const double prev_abs = std::abs(prev.at("delta_ns").asNumber());
        EXPECT_TRUE(prev_abs > std::abs(delta) ||
                    (prev_abs == std::abs(delta) &&
                     prev.at("kind").asString() < kind))
            << "row " << i << " (" << kind << ") out of order";
    }
}

TEST(AnalysisDeterminism, RepeatedAnalysesAreByteIdentical)
{
    std::string baseline;
    for (int rep = 0; rep < 2; ++rep) {
        TraceData data =
            runHierAllreduce(NetworkBackendKind::Flow, nullptr);
        AnalysisResult result = analyzeTrace(data);
        std::string bytes = analysisToJson(result).dump(2) +
                            analysisToCsv(result) +
                            analysisSummary(result);
        if (baseline.empty())
            baseline = bytes;
        else
            EXPECT_EQ(bytes, baseline);
    }
}

TEST(AnalysisDeterminism, SweepStoresIdenticalAcrossThreadCounts)
{
    sweep::SweepSpec spec = sweep::SweepSpec::fromJson(json::parse(R"json({
      "name": "analysis-sweep-test",
      "base": {
        "topology": "Ring(4,100)_Switch(2,50)",
        "backend": "flow",
        "trace": {"detail": "full", "analysis": true},
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
            sweep::ResultStore::fromBatch(spec, std::move(outcome));
        // The analysis column is populated on every row.
        for (size_t i = 0; i < store.rows(); ++i)
            EXPECT_GT(store.value(i, sweep::Metric::CriticalPath), 0.0);
        std::string bytes = store.toCsv() + store.toJson().dump(2);
        EXPECT_NE(bytes.find("critical_path_ns"), std::string::npos);
        if (baseline.empty())
            baseline = bytes;
        else
            EXPECT_EQ(bytes, baseline) << threads << " threads";
    }
}

/** Run the small traced collective via Simulator with or without
 *  analysis enabled. */
Report
runSmall(NetworkBackendKind backend, bool analysis)
{
    Topology topo({{BlockType::Ring, 4, 100.0, 300.0},
                   {BlockType::Switch, 2, 50.0, 500.0}});
    SimulatorConfig cfg;
    cfg.backend = backend;
    cfg.sys.collectiveChunks = 4;
    cfg.trace.detail = analysis ? Detail::Full : Detail::Off;
    cfg.trace.analysis = analysis;
    Simulator sim(topo, cfg);
    Workload wl =
        buildSingleCollective(topo, CollectiveType::AllReduce, 4e6);
    return sim.run(wl);
}

TEST(AnalysisObservational, SimulatedResultsBitIdenticalEveryBackend)
{
    for (NetworkBackendKind backend :
         {NetworkBackendKind::Analytical, NetworkBackendKind::Flow,
          NetworkBackendKind::Packet}) {
        Report off = runSmall(backend, false);
        Report on = runSmall(backend, true);
        EXPECT_EQ(off.totalTime, on.totalTime);
        EXPECT_EQ(off.events, on.events);
        EXPECT_EQ(off.messages, on.messages);
        ASSERT_EQ(off.perNpu.size(), on.perNpu.size());
        for (size_t i = 0; i < off.perNpu.size(); ++i) {
            EXPECT_EQ(off.perNpu[i].compute, on.perNpu[i].compute);
            EXPECT_EQ(off.perNpu[i].exposedComm,
                      on.perNpu[i].exposedComm);
            EXPECT_EQ(off.perNpu[i].idle, on.perNpu[i].idle);
        }
        // The analysis-enabled run filled the report fields; the
        // critical path is bounded by the total time.
        EXPECT_GT(on.criticalPathNs, 0.0);
        EXPECT_LE(on.criticalPathNs, on.totalTime + 1e-3);
        EXPECT_EQ(off.criticalPathNs, 0.0);
    }
}

TEST(AnalysisReport, FieldsRoundTripAndStayConditional)
{
    Report on = runSmall(NetworkBackendKind::Flow, true);
    ASSERT_GT(on.criticalPathNs, 0.0);
    EXPECT_FALSE(on.bottleneckLink.empty());
    EXPECT_GT(on.bottleneckLinkShare, 0.0);
    Report back = reportFromJson(reportToJson(on));
    EXPECT_EQ(back.criticalPathNs, on.criticalPathNs);
    EXPECT_EQ(back.traceExposedCommPerDim, on.traceExposedCommPerDim);
    EXPECT_EQ(back.bottleneckLink, on.bottleneckLink);
    EXPECT_EQ(back.bottleneckLinkShare, on.bottleneckLinkShare);

    // Untraced reports serialize without any analysis keys — the
    // sweep cache fingerprint must not change when analysis ships.
    Report off = runSmall(NetworkBackendKind::Flow, false);
    std::string plain = reportToJson(off).dump();
    EXPECT_EQ(plain.find("critical_path_ns"), std::string::npos);
    EXPECT_EQ(plain.find("bottleneck_link"), std::string::npos);
}

TEST(AnalysisEdgeCases, EmptyTrace)
{
    TraceConfig cfg;
    cfg.detail = Detail::Full;
    Tracer tracer(cfg);
    TraceData data = TraceData::fromTracer(tracer);
    EXPECT_TRUE(data.spans.empty());
    EXPECT_EQ(data.endNs, 0.0);

    AnalysisResult result = analyzeTrace(data);
    EXPECT_EQ(result.path.lengthNs, 0.0);
    EXPECT_TRUE(result.path.segments.empty());
    EXPECT_TRUE(result.links.empty());
    EXPECT_TRUE(result.dims.empty());
    EXPECT_TRUE(result.stretch.empty());

    TraceDiff diff = diffTraces(data, data);
    EXPECT_EQ(diff.totalDeltaNs, 0.0);
    EXPECT_TRUE(diff.kinds.empty());
}

TEST(AnalysisEdgeCases, ZeroLengthSpansDoNotStallTheWalk)
{
    TraceConfig cfg;
    cfg.detail = Detail::Full;
    Tracer tracer(cfg);
    // Two real compute spans with a zero-length marker between them
    // and a pile of zero-length spans at the exact path end.
    tracer.span(0, 0, "compute", "a", 0.0, 100.0);
    tracer.span(0, 0, "compute", "zero", 100.0, 0.0);
    tracer.span(0, 0, "compute", "b", 100.0, 100.0);
    for (int i = 0; i < 4; ++i)
        tracer.span(0, 0, "compute", "tail", 200.0, 0.0);

    TraceData data = TraceData::fromTracer(tracer);
    CriticalPath path = extractCriticalPath(data);
    EXPECT_NEAR(path.lengthNs, 200.0, 1e-9);
    expectTiles(path);
    // The zero-length spans are rolled up but never path segments.
    ASSERT_EQ(path.segments.size(), 2u);
    EXPECT_EQ(path.segments[0].kind, "compute:a");
    EXPECT_EQ(path.segments[1].kind, "compute:b");
}

TEST(AnalysisEdgeCases, UnclosedSpansAreDropped)
{
    TraceConfig cfg;
    cfg.detail = Detail::Full;
    Tracer tracer(cfg);
    tracer.span(0, 0, "compute", "closed", 0.0, 50.0);
    (void)tracer.beginSpan(0, 0, "compute", "never-closed", 10.0);
    TraceData data = TraceData::fromTracer(tracer);
    ASSERT_EQ(data.spans.size(), 1u);
    EXPECT_EQ(data.nameOf(data.spans[0]).name, "closed");
    CriticalPath path = extractCriticalPath(data);
    EXPECT_NEAR(path.lengthNs, 50.0, 1e-9);
}

TEST(AnalysisEdgeCases, SingleRankRunWithWaits)
{
    TraceConfig cfg;
    cfg.detail = Detail::Full;
    Tracer tracer(cfg);
    // One rank, with an idle gap: the path must tile the gap with an
    // explicit wait segment.
    tracer.span(0, 0, "compute", "a", 0.0, 100.0);
    tracer.span(0, 0, "compute", "b", 250.0, 50.0);
    TraceData data = TraceData::fromTracer(tracer);
    CriticalPath path = extractCriticalPath(data);
    EXPECT_NEAR(path.lengthNs, 300.0, 1e-9);
    expectTiles(path);
    ASSERT_EQ(path.segments.size(), 3u);
    EXPECT_EQ(path.segments[0].kind, "compute:a");
    EXPECT_TRUE(path.segments[1].isWait());
    EXPECT_NEAR(path.segments[1].durNs(), 150.0, 1e-9);
    EXPECT_EQ(path.segments[2].kind, "compute:b");
    EXPECT_NEAR(path.waitNs, 150.0, 1e-9);
}

TEST(AnalysisEdgeCases, UtilizationBucketLargerThanTheRun)
{
    Topology topo({{BlockType::Ring, 4, 100.0, 300.0},
                   {BlockType::Switch, 2, 50.0, 500.0}});
    SimulatorConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    cfg.trace.detail = Detail::Full;
    cfg.trace.analysis = true;
    cfg.trace.utilizationBucketNs = 1e15; // way past the sim end.
    Simulator sim(topo, cfg);
    Workload wl =
        buildSingleCollective(topo, CollectiveType::AllReduce, 4e6);
    Report report = sim.run(wl);
    ASSERT_NE(sim.tracer(), nullptr);

    TraceData data = TraceData::fromTracer(*sim.tracer());
    std::vector<LinkShare> links = rankLinks(data, 1000);
    ASSERT_FALSE(links.empty());
    for (const LinkShare &row : links) {
        EXPECT_GT(row.busyNs, 0.0);
        // Busy time can never exceed the trace window even though
        // the single bucket nominally extends far beyond it.
        EXPECT_LE(row.busyNs, report.totalTime + 1e-3);
        EXPECT_LE(row.share, 1.0 + 1e-9);
    }
    EXPECT_GT(report.criticalPathNs, 0.0);
}

TEST(AnalysisEdgeCases, LinkRankingNeedsNoUtilizationSeries)
{
    // A 1 GB all-reduce at 1 GB/s: over a second of simulated time.
    // Analysis ranks links from one busy total per link, so its tracer
    // holds one event block and 8 B per link, not a 1 us series per
    // link; asking for that series leaves the ranking as it was.
    Topology topo({{BlockType::Ring, 4, 1.0, 300.0}});
    Workload wl =
        buildSingleCollective(topo, CollectiveType::AllReduce, 1e9);
    auto run = [&](bool analysis, double bucket_ns, size_t *bytes) {
        SimulatorConfig cfg;
        cfg.trace.detail = Detail::Full;
        cfg.trace.analysis = analysis;
        cfg.trace.utilizationBucketNs = bucket_ns;
        Simulator sim(topo, cfg);
        Report report = sim.run(wl);
        EXPECT_GT(report.totalTime, 1e9);
        *bytes = sim.tracer()->bytesInUse();
        return rankLinks(TraceData::fromTracer(*sim.tracer()), 1000);
    };
    size_t plain_bytes = 0, analysis_bytes = 0, series_bytes = 0;
    run(false, 0.0, &plain_bytes);
    std::vector<LinkShare> totals = run(true, 0.0, &analysis_bytes);
    EXPECT_LE(analysis_bytes, plain_bytes + 1024);
    // One 4 MiB event block, plus under 1 MiB for the rest.
    EXPECT_LT(analysis_bytes, size_t(5) << 20);

    std::vector<LinkShare> series = run(true, 1000.0, &series_bytes);
    EXPECT_GT(series_bytes, size_t(8) << 20); // the series is sampled.
    ASSERT_FALSE(totals.empty());
    ASSERT_EQ(series.size(), totals.size());
    for (size_t i = 0; i < totals.size(); ++i) {
        EXPECT_EQ(series[i].link, totals[i].link) << i;
        EXPECT_NEAR(series[i].busyNs, totals[i].busyNs,
                    1e-12 * totals[i].busyNs)
            << totals[i].link;
    }
}

// A span is ids and times; its strings live once in the name table.
static_assert(sizeof(Span) <= 32);

TEST(AnalysisLoader, ChromeFileRoundTripsToTheSameAnalysis)
{
    const std::string path = "test_analysis_roundtrip.json";
    Topology topo({{BlockType::Ring, 4, 100.0, 300.0},
                   {BlockType::Switch, 2, 50.0, 500.0}});
    SimulatorConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    cfg.sys.collectiveChunks = 4;
    cfg.trace.detail = Detail::Full;
    cfg.trace.file = path;
    Simulator sim(topo, cfg);
    Workload wl =
        buildSingleCollective(topo, CollectiveType::AllReduce, 4e6);
    sim.run(wl);
    ASSERT_NE(sim.tracer(), nullptr);

    TraceData live = TraceData::fromTracer(*sim.tracer());
    TraceData loaded = TraceData::fromChromeFile(path);
    std::remove(path.c_str());

    // The export writes microseconds at %.6f, so loaded timestamps
    // carry ~1e-7 ns rounding; structure and analysis agree within
    // the analyzer's end-matching tolerance.
    ASSERT_EQ(loaded.spans.size(), live.spans.size());
    EXPECT_NEAR(loaded.endNs, live.endNs, 1e-3);
    CriticalPath p_live = extractCriticalPath(live);
    CriticalPath p_loaded = extractCriticalPath(loaded);
    EXPECT_NEAR(p_loaded.lengthNs, p_live.lengthNs, 1e-3);
    EXPECT_EQ(p_loaded.segments.size(), p_live.segments.size());
    for (size_t i = 0; i < live.spans.size(); ++i) {
        EXPECT_EQ(loaded.nameOf(loaded.spans[i]).kind,
                  live.nameOf(live.spans[i]).kind)
            << i;
        EXPECT_EQ(alignKey(loaded, loaded.spans[i]),
                  alignKey(live, live.spans[i]))
            << i;
    }
    // Link labels come back via thread_name metadata.
    TraceDiff diff = diffTraces(live, loaded);
    for (const DiffKindRow &row : diff.kinds) {
        EXPECT_EQ(row.countA, row.countB) << row.kind;
        EXPECT_NEAR(row.deltaNs, 0.0, 1e-3) << row.kind;
    }
}

TEST(AnalysisLoader, ChromeFileTakesAnObjectOrABareArray)
{
    const std::string events =
        R"([{"ph": "M", "name": "thread_name", "pid": 0, "tid": 1048576,
              "args": {"name": "link 0"}},
             {"ph": "X", "cat": "net", "name": "msg 0->1 d0", "pid": 0,
              "tid": 0, "ts": 2.5, "dur": 1},
             {"ph": "i", "name": "mark", "pid": 0, "tid": 0, "ts": 0},
             {"ph": "X", "cat": "compute", "name": "fwd", "pid": 0,
              "tid": 1, "ts": 1, "dur": 0.5}])";
    const std::string path = testing::TempDir() + "/astra_chrome.json";
    auto load = [&](const std::string &text) {
        OutputFile::write(path, "trace file", text);
        return TraceData::fromChromeFile(path);
    };
    TraceData bare = load(events);
    TraceData wrapped = load(R"({"displayTimeUnit": "ns", "traceEvents": )" +
                             events + R"(, "otherData": {"v": [1]}})");
    ASSERT_EQ(bare.spans.size(), 2u);
    ASSERT_EQ(wrapped.spans.size(), 2u);
    for (const TraceData *d : {&bare, &wrapped}) {
        EXPECT_EQ(d->nameOf(d->spans[0]).name, "fwd");
        EXPECT_EQ(d->nameOf(d->spans[1]).peerDst, 1);
        EXPECT_DOUBLE_EQ(d->endNs, 3500.0);
        ASSERT_EQ(d->links.size(), 1u);
        EXPECT_EQ(d->links[0].label, "link 0");
    }
    // Keys in any order (args before ph), a duplicated ts (the last
    // wins), unknown keys, and a link named after its spans.
    TraceData quirky = load(R"([
        {"args": {"bytes": 8}, "ph": "X", "cat": "net", "ts": 9,
         "name": "msg 0->1 d0", "pid": 0, "tid": 0, "ts": 2.5, "dur": 1,
         "id": "0x1", "flow": {"in": [1, {"out": null}]}},
        {"ph": "X", "cat": "link", "name": "busy", "pid": 0,
         "tid": 1048577, "ts": 2.5, "dur": 1},
        {"ph": "X", "cat": "compute", "name": "fwd", "pid": 0, "tid": 1,
         "ts": 1, "dur": 0.5, "sf": 7},
        {"args": {"name": "link 1"}, "ph": "M", "name": "thread_name",
         "pid": 0, "tid": 1048577}])");
    ASSERT_EQ(quirky.spans.size(), 3u);
    EXPECT_EQ(quirky.nameOf(quirky.spans[0]).name, "fwd");
    EXPECT_EQ(quirky.nameOf(quirky.spans[1]).peerDst, 1);
    EXPECT_DOUBLE_EQ(quirky.spans[1].ts, 2500.0);
    EXPECT_DOUBLE_EQ(quirky.endNs, 3500.0);
    ASSERT_EQ(quirky.links.size(), 2u);
    EXPECT_EQ(quirky.links[0].label, "");
    EXPECT_EQ(quirky.links[1].label, "link 1");
    EXPECT_DOUBLE_EQ(quirky.links[1].busyNs, 1000.0);
    EXPECT_THROW(load(R"({"events": []})"), FatalError);
    EXPECT_THROW(load(R"({"traceEvents": [], "traceEvents": []})"),
                 FatalError);
}

TEST(AnalysisLoader, NameNumbersTooLargeForTheirFieldAreLeftUnset)
{
    const std::string path = testing::TempDir() + "/astra_chrome.json";
    OutputFile::write(path, "trace file", R"([{"ph": "X", "cat": "net",
        "pid": 0, "tid": 0, "ts": 0, "dur": 1,
        "name": "msg 1->99999999999999999999 d99999999999"}])");
    TraceData huge = TraceData::fromChromeFile(path);
    ASSERT_EQ(huge.spans.size(), 1u);
    EXPECT_EQ(huge.nameOf(huge.spans[0]).peerSrc, -1);
    EXPECT_EQ(huge.nameOf(huge.spans[0]).dim, -1);
}

TEST(AnalysisConfig, ParsingAndValidation)
{
    TraceConfig cfg = traceConfigFromJson(
        json::parse(R"({"detail": "full", "analysis": true})"), "trace");
    EXPECT_TRUE(cfg.analysis);

    // Analysis needs span recording: an explicit "off" is an error.
    EXPECT_THROW(
        traceConfigFromJson(
            json::parse(R"({"analysis": true, "detail": "off"})"),
            "trace"),
        FatalError);
    // An analysis output file implies analysis.
    TraceConfig implied = traceConfigFromJson(
        json::parse(R"({"detail": "full",
                        "analysis_file": "a.json"})"),
        "trace");
    EXPECT_TRUE(implied.analysis);
}

} // namespace
} // namespace analysis
} // namespace trace
} // namespace astra
