/**
 * @file
 * Run-harness tests (src/astra/run_harness.h): Simulator and
 * ClusterSimulator attach tracing, heartbeats, faults, footprints and
 * manifests through one code path, so a single full-cluster job
 * reports the same observability numbers as the plain Simulator run
 * it replays.
 *
 *  - Heartbeats, footprint rollup, queue self-profile and fabric trace
 *    counters agree between the two owners.
 *  - Trace analysis runs on cluster runs, following the job that set
 *    the makespan, and matches the plain run's critical path.
 *  - The two run manifests differ only in their run kind.
 *  - The trace-write wall time is booked once, by the tracer, and
 *    only when a file is written.
 *  - Both owners build memory through one factory and reject two
 *    remote tiers the same way.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "astra/simulator.h"
#include "cluster/cluster.h"
#include "common/logging.h"
#include "topology/notation.h"

namespace astra {
namespace {

/** Compute + collective + p2p ring: every layer the harness observes. */
Workload
ringWorkload(const Topology &topo)
{
    Workload wl;
    wl.name = "ring";
    int npus = topo.npus();
    for (NpuId n = 0; n < npus; ++n) {
        EtGraph g;
        g.npu = n;
        uint32_t compute = g.add(EtNode::compute(1e9, 1e6));
        uint32_t coll = g.add(
            EtNode::collective(CollectiveType::AllReduce, 1 << 20, 3),
            {compute});
        g.add(EtNode::send((n + 1) % npus, 64 << 10,
                           50 + static_cast<uint64_t>(n)),
              {coll});
        g.add(EtNode::recv((n - 1 + npus) % npus,
                           50 + static_cast<uint64_t>((n - 1 + npus) %
                                                      npus)),
              {coll});
        wl.graphs.push_back(std::move(g));
    }
    return wl;
}

/** One plain run and its single-job cluster replay, both observed. */
struct Pair
{
    Report plain;
    cluster::ClusterReport cluster;
    std::vector<telemetry::HeartbeatRecord> plainBeats;
    std::vector<telemetry::HeartbeatRecord> clusterBeats;
};

Pair
runPair(NetworkBackendKind backend, const RunConfig &run)
{
    Topology topo = parseTopology("Ring(2,250)_Switch(4,50)");
    SimulatorConfig cfg;
    static_cast<RunConfig &>(cfg) = run;
    cfg.backend = backend;
    cfg.sys.collectiveChunks = 2;
    Workload wl = ringWorkload(topo);
    Pair out;

    Simulator plain(topo, cfg);
    out.plain = plain.run(wl);
    if (plain.monitor() != nullptr)
        out.plainBeats = plain.monitor()->records();

    cluster::ClusterConfig ccfg;
    static_cast<RunConfig &>(ccfg) = run;
    ccfg.backend = backend;
    ccfg.isolatedBaselines = false;
    // Cluster outputs go to their own files.
    auto rename = [](std::string &path) {
        if (!path.empty())
            path = "cluster_" + path;
    };
    rename(ccfg.trace.file);
    rename(ccfg.trace.analysisFile);
    rename(ccfg.telemetry.manifest);
    cluster::ClusterSimulator sim(topo, ccfg);
    cluster::JobSpec spec;
    spec.name = "whole";
    spec.size = topo.npus();
    spec.cfg = cfg;
    spec.workload = wl;
    sim.addJob(std::move(spec));
    out.cluster = sim.run();
    sim.writeManifest(out.cluster);
    if (sim.monitor() != nullptr)
        out.clusterBeats = sim.monitor()->records();
    return out;
}

size_t
footprintOf(const Report &r, const std::string &name)
{
    for (const auto &[key, bytes] : r.footprintBySubsystem)
        if (key == name)
            return bytes;
    ADD_FAILURE() << "no footprint entry '" << name << "'";
    return 0;
}

class HarnessParity : public testing::TestWithParam<NetworkBackendKind>
{
};

TEST_P(HarnessParity, SingleJobClusterObservesLikeThePlainSimulator)
{
    RunConfig run;
    run.trace.detail = trace::Detail::Full;
    run.telemetry.intervalEvents = 64;
    Pair p = runPair(GetParam(), run);
    const Report &agg = p.cluster.aggregate;
    ASSERT_EQ(agg.totalTime, p.plain.totalTime);
    ASSERT_EQ(agg.events, p.plain.events);

    // Heartbeats: same cadence, same deterministic content.
    ASSERT_GT(p.plainBeats.size(), 1u);
    ASSERT_EQ(p.clusterBeats.size(), p.plainBeats.size());
    EXPECT_EQ(agg.telemetryHeartbeats, p.plain.telemetryHeartbeats);
    for (size_t i = 0; i < p.plainBeats.size(); ++i) {
        const telemetry::HeartbeatRecord &a = p.plainBeats[i];
        const telemetry::HeartbeatRecord &b = p.clusterBeats[i];
        EXPECT_EQ(a.simTimeNs, b.simTimeNs);
        EXPECT_EQ(a.events, b.events);
        EXPECT_EQ(a.queueDepth, b.queueDepth);
        EXPECT_EQ(a.nodesDone, b.nodesDone);
        EXPECT_EQ(a.nodesTotal, b.nodesTotal);
        EXPECT_EQ(a.active, b.active);
        EXPECT_EQ(a.solverSolves, b.solverSolves);
    }
    EXPECT_TRUE(p.plainBeats.back().jobs.empty());
    ASSERT_EQ(p.clusterBeats.back().jobs.size(), 1u);

    // Footprint rollup: same subsystems, same bytes below the tracer
    // (the cluster trace also holds job lifecycle spans).
    for (const char *name : {"event_queue", "network", "collectives"})
        EXPECT_EQ(footprintOf(agg, name), footprintOf(p.plain, name))
            << name;
    EXPECT_GT(footprintOf(agg, "tracer"), 0u);
    EXPECT_EQ(agg.bytesPerFlow, p.plain.bytesPerFlow);

    // Queue self-profile and fabric counters come from the same
    // events; only the trace event count differs.
    for (const auto &[key, value] : p.plain.traceCounters) {
        if (key == "trace_events")
            continue;
        ASSERT_TRUE(agg.traceCounters.count(key)) << key;
        EXPECT_EQ(agg.traceCounters.at(key), value) << key;
    }
    EXPECT_EQ(agg.traceHistograms, p.plain.traceHistograms);
    EXPECT_GT(agg.traceCounters.at("trace_events"),
              p.plain.traceCounters.at("trace_events"));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, HarnessParity,
    testing::Values(NetworkBackendKind::Analytical,
                    NetworkBackendKind::Flow),
    [](const testing::TestParamInfo<NetworkBackendKind> &info) {
        return info.param == NetworkBackendKind::Flow ? "flow"
                                                      : "analytical";
    });

TEST(RunHarness, ClusterRunsTraceAnalysisOnTheMakespanJob)
{
    RunConfig run;
    run.trace.detail = trace::Detail::Full;
    run.trace.analysis = true;
    Pair p = runPair(NetworkBackendKind::Flow, run);
    const Report &agg = p.cluster.aggregate;
    ASSERT_GT(p.plain.criticalPathNs, 0.0);
    EXPECT_EQ(agg.criticalPathNs, p.plain.criticalPathNs);
    EXPECT_EQ(agg.traceExposedCommPerDim, p.plain.traceExposedCommPerDim);
    EXPECT_EQ(agg.bottleneckLink, p.plain.bottleneckLink);
    EXPECT_EQ(agg.bottleneckLinkShare, p.plain.bottleneckLinkShare);
    EXPECT_TRUE(agg.traceWallSeconds.count("wall_analysis_seconds"));
}

TEST(RunHarness, ManifestsDifferOnlyInRunKind)
{
    RunConfig run;
    run.telemetry.manifest = "harness_manifest.json";
    run.telemetry.configHash = 0x0123456789abcdefull;
    Pair p = runPair(NetworkBackendKind::Analytical, run);
    json::Value plain = json::parseFile("harness_manifest.json");
    json::Value clust = json::parseFile("cluster_harness_manifest.json");
    std::remove("harness_manifest.json");
    std::remove("cluster_harness_manifest.json");

    EXPECT_EQ(plain.at("run_kind").asString(), "simulator");
    EXPECT_EQ(clust.at("run_kind").asString(), "cluster");
    for (const char *host : {"run_kind", "wall_seconds", "wall",
                             "peak_rss_bytes"}) {
        plain.mutableObject().erase(host);
        clust.mutableObject().erase(host);
    }
    EXPECT_EQ(plain.dump(), clust.dump());
    EXPECT_EQ(uint64_t(plain.at("peak_footprint_bytes").asNumber()),
              p.plain.peakFootprintBytes);
}

TEST(RunHarness, TraceWriteTimeIsBookedOnceAndOnlyForFiles)
{
    RunConfig in_memory;
    in_memory.trace.detail = trace::Detail::Spans;
    Pair mem = runPair(NetworkBackendKind::Analytical, in_memory);
    EXPECT_FALSE(
        mem.plain.traceWallSeconds.count("wall_trace_write_seconds"));
    EXPECT_FALSE(mem.cluster.aggregate.traceWallSeconds.count(
        "wall_trace_write_seconds"));

    RunConfig to_file = in_memory;
    to_file.trace.file = "harness_trace.json";
    Pair file = runPair(NetworkBackendKind::Analytical, to_file);
    std::remove("harness_trace.json");
    std::remove("cluster_harness_trace.json");
    EXPECT_TRUE(
        file.plain.traceWallSeconds.count("wall_trace_write_seconds"));
    EXPECT_TRUE(file.cluster.aggregate.traceWallSeconds.count(
        "wall_trace_write_seconds"));
}

TEST(RunHarness, BothOwnersRejectTwoRemoteMemoryTiers)
{
    Topology topo = parseTopology("Ring(4,100)");
    SimulatorConfig cfg;
    cfg.pooledMem = RemoteMemoryConfig{};
    cfg.zeroInfinityMem = ZeroInfinityConfig{};
    EXPECT_THROW(Simulator(topo, cfg), FatalError);

    cluster::ClusterSimulator sim(topo, cluster::ClusterConfig{});
    cluster::JobSpec spec;
    spec.size = 4;
    spec.cfg = cfg;
    spec.workload = ringWorkload(topo);
    sim.addJob(std::move(spec));
    EXPECT_THROW(sim.run(), FatalError);
}

} // namespace
} // namespace astra
