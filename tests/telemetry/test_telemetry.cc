/**
 * @file
 * Telemetry-layer tests (docs/observability.md): the zero-overhead
 * contract (telemetry off is bit-identical; telemetry on is purely
 * observational), deterministic heartbeat content under the
 * event-count cadence, ETA convergence, the always-on footprint
 * rollup, run-manifest round-trips, and config rejection paths.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "astra/simulator.h"
#include "bench_util.h"
#include "cluster/cluster.h"
#include "cluster/config.h"
#include "common/cli.h"
#include "common/logging.h"
#include "sweep/result_store.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "workload/builders.h"

namespace astra {
namespace telemetry {
namespace {

/** Expect `fn` to throw a FatalError whose message contains `what`. */
template <typename Fn>
void
expectRejects(Fn fn, const std::string &what)
{
    try {
        fn();
        FAIL() << "accepted input that should be rejected (" << what
               << ")";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << "message: " << e.what()
            << "\nexpected substring: " << what;
    }
}

CommandLine
makeCli(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "prog");
    return CommandLine(static_cast<int>(argv.size()), argv.data(),
                       cliFlags());
}

/** Mixed compute + collective workload, cheap on every backend. */
Workload
mixedWorkload(const Topology &topo)
{
    Workload wl;
    wl.name = "mixed";
    for (NpuId n = 0; n < topo.npus(); ++n) {
        EtGraph g;
        g.npu = n;
        uint32_t compute = g.add(EtNode::compute(1e9, 1e6));
        g.add(EtNode::collective(CollectiveType::AllReduce, 1 << 20, 7),
              {compute});
        wl.graphs.push_back(std::move(g));
    }
    return wl;
}

Report
runMixed(NetworkBackendKind backend, const TelemetryConfig &telemetry,
         Monitor **monitor_out = nullptr,
         Simulator **sim_keep = nullptr)
{
    Topology topo({{BlockType::Ring, 4, 100.0, 500.0}});
    SimulatorConfig cfg;
    cfg.backend = backend;
    cfg.telemetry = telemetry;
    static std::vector<std::unique_ptr<Simulator>> keep;
    keep.push_back(std::make_unique<Simulator>(topo, cfg));
    Simulator &sim = *keep.back();
    Report r = sim.run(mixedWorkload(topo));
    if (monitor_out != nullptr)
        *monitor_out = sim.monitor();
    if (sim_keep != nullptr)
        *sim_keep = &sim;
    return r;
}

// ------------------------------------------------------------ config

TEST(TelemetryConfig, JsonParses)
{
    json::Value doc = json::parse(R"json({
      "file": "beats.ndjson",
      "interval_ms": 250,
      "interval_events": 1024,
      "manifest": "manifest.json"
    })json");
    TelemetryConfig cfg = telemetryConfigFromJson(doc, "telemetry");
    EXPECT_EQ(cfg.file, "beats.ndjson");
    EXPECT_DOUBLE_EQ(cfg.intervalMs, 250.0);
    EXPECT_EQ(cfg.intervalEvents, 1024u);
    EXPECT_EQ(cfg.manifest, "manifest.json");
    EXPECT_TRUE(cfg.heartbeatsEnabled());
    EXPECT_TRUE(cfg.enabled());

    TelemetryConfig off;
    EXPECT_FALSE(off.heartbeatsEnabled());
    EXPECT_FALSE(off.enabled());
}

TEST(TelemetryConfig, RejectionPaths)
{
    // Unknown keys die with the path-qualified key name.
    expectRejects(
        [] {
            telemetryConfigFromJson(
                json::parse(R"({"interval_msec": 5})"), "telemetry");
        },
        "telemetry.interval_msec");
    expectRejects(
        [] {
            telemetryConfigFromJson(json::parse(R"([1, 2])"),
                                    "cluster.telemetry");
        },
        "cluster.telemetry");
    expectRejects(
        [] {
            telemetryConfigFromJson(
                json::parse(R"({"interval_ms": -1})"), "telemetry");
        },
        "interval_ms");
    expectRejects(
        [] {
            telemetryConfigFromJson(
                json::parse(R"({"interval_events": -4})"), "telemetry");
        },
        "interval_events");
}

TEST(TelemetryConfig, CliSinkImpliesDeterministicCadence)
{
    // --heartbeat without a cadence defaults to the event cadence so
    // the beat count stays machine-independent.
    CommandLine cl = makeCli({"--heartbeat", "b.ndjson"});
    TelemetryConfig cfg = telemetryConfigFromCli(cl);
    EXPECT_EQ(cfg.file, "b.ndjson");
    EXPECT_EQ(cfg.intervalEvents, kDefaultIntervalEvents);
    EXPECT_DOUBLE_EQ(cfg.intervalMs, 0.0);

    // An explicit wall cadence suppresses the implied event cadence.
    CommandLine wall = makeCli(
        {"--heartbeat", "b.ndjson", "--heartbeat-interval-ms", "100"});
    TelemetryConfig wall_cfg = telemetryConfigFromCli(wall);
    EXPECT_EQ(wall_cfg.intervalEvents, 0u);
    EXPECT_DOUBLE_EQ(wall_cfg.intervalMs, 100.0);

    // CLI flags layer over (and override) a config-file block.
    json::Value base = json::parse(
        R"({"file": "from_config.ndjson", "interval_events": 512})");
    CommandLine over = makeCli({"--manifest", "m.json"});
    TelemetryConfig merged = telemetryConfigFromCli(over, base);
    EXPECT_EQ(merged.file, "from_config.ndjson");
    EXPECT_EQ(merged.intervalEvents, 512u);
    EXPECT_EQ(merged.manifest, "m.json");
}

TEST(TelemetryConfig, CliRejectsNegativeOrMalformedNumbers)
{
    // One `error:` line and exit 2, naming the flag or the key it sets.
    CliSpec spec{.groups = {cliFlags()}};
    for (std::vector<const char *> argv :
         {std::vector<const char *>{"prog", "--heartbeat-events", "-1"},
          {"prog", "--heartbeat-events", "1.5"},
          {"prog", "--heartbeat-events", "12x"},
          {"prog", "--heartbeat-events", "nan"},
          {"prog", "--heartbeat-interval-ms", "-5"},
          {"prog", "--heartbeat-interval-ms", "inf"}}) {
        testing::internal::CaptureStderr();
        int rc = runCli(static_cast<int>(argv.size()), argv.data(), spec,
                        [](const CommandLine &cl) {
                            telemetryConfigFromCli(cl);
                            return 0;
                        });
        std::string err = testing::internal::GetCapturedStderr();
        std::string what = std::string(argv[1]) + " " + argv[2];
        EXPECT_EQ(rc, 2) << what;
        EXPECT_EQ(err.rfind("error: ", 0), 0u) << what << ": " << err;
        EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
        std::string key = argv[1] == std::string("--heartbeat-events")
                              ? "interval_events"
                              : "interval_ms";
        EXPECT_TRUE(err.find(key) != std::string::npos ||
                    err.find(argv[1]) != std::string::npos)
            << what << ": " << err;
    }
}

// ----------------------------------------------- zero-overhead contract

TEST(Telemetry, OffVsOnBitIdenticalOnEveryBackend)
{
    for (NetworkBackendKind backend :
         {NetworkBackendKind::Analytical, NetworkBackendKind::Flow,
          NetworkBackendKind::Packet}) {
        Report off = runMixed(backend, TelemetryConfig{});
        EXPECT_EQ(off.telemetryHeartbeats, 0u);

        TelemetryConfig on;
        on.intervalEvents = 64; // in-memory records only, no file.
        Report with = runMixed(backend, on);
        EXPECT_GT(with.telemetryHeartbeats, 0u);

        // The monitored run must be bit-identical apart from the
        // heartbeat count itself (serialized only when nonzero).
        with.telemetryHeartbeats = 0;
        EXPECT_EQ(reportToJson(off).dump(2), reportToJson(with).dump(2))
            << "backend " << static_cast<int>(backend);
    }
}

TEST(Telemetry, HierAllreduce256HeartbeatsLeaveTheRunBitIdentical)
{
    // Default event cadence on the telemetry bench's scenario.
    for (bool monitored : {false, true}) {
        SCOPED_TRACE(monitored ? "monitored" : "unmonitored");
        bench::HierAllreduce256 run(NetworkBackendKind::Flow);
        TelemetryConfig cfg;
        cfg.intervalEvents = kDefaultIntervalEvents;
        Monitor monitor(cfg);
        if (monitored)
            run.eq.setMonitor(&monitor);
        run.run();
        EXPECT_NEAR(run.eq.now(), 87250.0, 5e-4);
        EXPECT_EQ(run.eq.executedEvents(), 261315u);
        if (monitored) {
            monitor.finish(run.eq.now(), run.eq.executedEvents(),
                           run.eq.pending());
            run.eq.setMonitor(nullptr);
            EXPECT_EQ(monitor.heartbeatCount(), 4u);
        }
    }
}

TEST(Telemetry, FlowAllreduce4096FootprintMatchesTheCommittedRollup)
{
    // Capacity-based accounting is deterministic, so the 4096-NPU
    // scale point's footprint is pinned exactly.
    Report r = bench::runFlowAllreduce4096();
    EXPECT_NEAR(r.totalTime, 35940.234, 5e-4);
    EXPECT_EQ(r.events, 2101312u);
    EXPECT_EQ(r.peakFootprintBytes, 22033256u);
    EXPECT_NEAR(r.bytesPerFlow, 460.335, 5e-4);
    EXPECT_NEAR(r.bytesPerNpu, 5379.213, 5e-4);
    EXPECT_EQ(r.telemetryHeartbeats, 33u);
}

TEST(Telemetry, DeterministicHeartbeatFieldsAcrossRepeats)
{
    TelemetryConfig cfg;
    cfg.intervalEvents = 64;
    Monitor *a = nullptr;
    Monitor *b = nullptr;
    runMixed(NetworkBackendKind::Flow, cfg, &a);
    runMixed(NetworkBackendKind::Flow, cfg, &b);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_GT(a->records().size(), 1u);
    ASSERT_EQ(a->records().size(), b->records().size());
    for (size_t i = 0; i < a->records().size(); ++i) {
        const HeartbeatRecord &ra = a->records()[i];
        const HeartbeatRecord &rb = b->records()[i];
        EXPECT_EQ(ra.seq, rb.seq);
        EXPECT_DOUBLE_EQ(ra.simTimeNs, rb.simTimeNs);
        EXPECT_EQ(ra.events, rb.events);
        EXPECT_EQ(ra.queueDepth, rb.queueDepth);
        EXPECT_EQ(ra.nodesDone, rb.nodesDone);
        EXPECT_EQ(ra.nodesTotal, rb.nodesTotal);
        EXPECT_DOUBLE_EQ(ra.progress, rb.progress);
        EXPECT_DOUBLE_EQ(ra.etaSimNs, rb.etaSimNs);
        EXPECT_EQ(ra.active, rb.active);
        EXPECT_EQ(ra.solverSolves, rb.solverSolves);
        EXPECT_EQ(ra.footprintBytes, rb.footprintBytes);
        EXPECT_EQ(ra.footprint, rb.footprint);
        // Wall fields (ra.wallSeconds etc.) are machine-dependent and
        // deliberately not compared.
    }
    // Flow backend beats carry solver work and a footprint breakdown.
    const HeartbeatRecord &last = a->records().back();
    EXPECT_GT(last.solverSolves, 0u);
    EXPECT_GT(last.footprintBytes, 0u);
    bool has_eq = false;
    for (const auto &[name, bytes] : last.footprint)
        has_eq = has_eq || name == "event_queue";
    EXPECT_TRUE(has_eq);
}

TEST(Telemetry, EtaConvergesOnSerialChain)
{
    // A uniform serial compute chain advances progress linearly in
    // sim time, so the t*(1-p)/p extrapolation is exact: the ETA must
    // shrink monotonically and hit zero at the final beat.
    Topology topo({{BlockType::Ring, 2, 100.0, 100.0}});
    Workload wl;
    wl.name = "chain";
    for (NpuId n = 0; n < topo.npus(); ++n) {
        EtGraph g;
        g.npu = n;
        for (int i = 0; i < 64; ++i) {
            EtNode node = EtNode::compute(1e9, 1e6);
            if (i > 0)
                g.add(node, {uint32_t(i - 1)});
            else
                g.add(node);
        }
        wl.graphs.push_back(std::move(g));
    }
    SimulatorConfig cfg;
    cfg.telemetry.intervalEvents = 8;
    Simulator sim(topo, cfg);
    sim.run(wl);
    ASSERT_NE(sim.monitor(), nullptr);
    const std::vector<HeartbeatRecord> &beats = sim.monitor()->records();
    ASSERT_GT(beats.size(), 4u);
    double last_eta = -1.0;
    for (const HeartbeatRecord &r : beats) {
        if (r.progress <= 0.0)
            continue;
        if (last_eta >= 0.0) {
            EXPECT_LE(r.etaSimNs, last_eta + 1e-6);
        }
        last_eta = r.etaSimNs;
    }
    // Progress is monotone and complete; the final (finish) beat has
    // nothing left to estimate.
    for (size_t i = 1; i < beats.size(); ++i)
        EXPECT_GE(beats[i].progress, beats[i - 1].progress);
    EXPECT_DOUBLE_EQ(beats.back().progress, 1.0);
    EXPECT_DOUBLE_EQ(beats.back().etaSimNs, 0.0);
}

TEST(Telemetry, HeartbeatFileIsValidNdjson)
{
    std::string path = "telemetry_beats_test.ndjson";
    TelemetryConfig cfg;
    cfg.file = path;
    cfg.intervalEvents = 64;
    Report r = runMixed(NetworkBackendKind::Analytical, cfg);

    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char line[4096];
    uint64_t lines = 0;
    uint64_t prev_events = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        json::Value beat = json::parse(line);
        EXPECT_EQ(uint64_t(beat.at("seq").asNumber()), lines);
        EXPECT_GE(uint64_t(beat.at("events").asNumber()), prev_events);
        prev_events = uint64_t(beat.at("events").asNumber());
        EXPECT_GE(beat.at("progress").asNumber(), 0.0);
        EXPECT_LE(beat.at("progress").asNumber(), 1.0);
        EXPECT_TRUE(beat.has("wall_seconds"));
        ++lines;
    }
    std::fclose(f);
    EXPECT_EQ(lines, r.telemetryHeartbeats);
    std::remove(path.c_str());
}

TEST(Telemetry, HeartbeatFileFlushesEachRecord)
{
    // A live stream: each beat is in the file before the run ends.
    std::string path = "telemetry_flush_test.ndjson";
    TelemetryConfig cfg;
    cfg.file = path;
    cfg.intervalEvents = 1;
    Monitor monitor(cfg);
    monitor.poll(10.0, 1, 0);
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(json::parse(line).at("seq").asInt(), 0);
    monitor.finish(20.0, 2, 0);
    std::remove(path.c_str());
}

// ------------------------------------------------- footprint rollup

TEST(Telemetry, FootprintRollupIsAlwaysMeasured)
{
    // No telemetry config at all: the report still carries the
    // deterministic memory accounting.
    Report r = runMixed(NetworkBackendKind::Flow, TelemetryConfig{});
    EXPECT_GT(r.peakFootprintBytes, 0u);
    ASSERT_FALSE(r.footprintBySubsystem.empty());
    size_t sum = 0;
    bool has_network = false;
    for (const auto &[name, bytes] : r.footprintBySubsystem) {
        sum += bytes;
        has_network = has_network || name == "network";
    }
    EXPECT_TRUE(has_network);
    EXPECT_EQ(sum, r.peakFootprintBytes);
    EXPECT_DOUBLE_EQ(r.bytesPerNpu, double(r.peakFootprintBytes) / 4.0);
    // The flow backend pools per-flow state -> bytes/flow is defined.
    EXPECT_GT(r.bytesPerFlow, 0.0);

    // The analytical backend keeps no per-message state.
    Report a =
        runMixed(NetworkBackendKind::Analytical, TelemetryConfig{});
    EXPECT_DOUBLE_EQ(a.bytesPerFlow, 0.0);
    EXPECT_GT(a.peakFootprintBytes, 0u);

    // Footprints are deterministic: repeat runs agree exactly.
    Report r2 = runMixed(NetworkBackendKind::Flow, TelemetryConfig{});
    EXPECT_EQ(r.peakFootprintBytes, r2.peakFootprintBytes);
    EXPECT_EQ(r.footprintBySubsystem, r2.footprintBySubsystem);
}

// ------------------------------------------------------- manifests

TEST(Telemetry, ManifestRoundTrip)
{
    ManifestInfo info;
    info.kind = "simulator";
    info.configHash = 0xdeadbeef12345678ull;
    info.backend = "flow";
    info.topology = "Ring(4,100,500)";
    info.npus = 4;
    info.seed = 7;
    info.wallBreakdown = {{"run", 0.2}, {"trace_write", 0.05}};
    info.outputs = {"beats.ndjson", "out.csv"};
    Report report;
    report.peakFootprintBytes = 4096;
    report.footprintBySubsystem = {{"event_queue", 1024}, {"network", 3072}};
    report.bytesPerFlow = 96.5;
    report.bytesPerNpu = 1024.0;
    report.telemetryHeartbeats = 12;
    report.peakRssBytes = 1 << 20;
    report.wallSeconds = 0.25;

    std::string path = "telemetry_manifest_test.json";
    writeManifest(path, info, report);
    json::Value doc = json::parseFile(path);
    std::remove(path.c_str());

    EXPECT_EQ(doc.at("kind").asString(), "astra-run-manifest");
    EXPECT_EQ(doc.at("run_kind").asString(), "simulator");
    EXPECT_EQ(int(doc.at("manifest_schema_version").asNumber()),
              kManifestSchemaVersion);
    EXPECT_EQ(int(doc.at("spec_schema_version").asNumber()),
              sweep::kSpecSchemaVersion);
    // The provenance chain: the manifest pins the exact build
    // fingerprint the sweep cache would key this run by, and the
    // config hash in its canonical 16-hex-digit form.
    EXPECT_EQ(doc.at("cache_fingerprint").asString(),
              sweep::cacheFingerprint());
    EXPECT_EQ(doc.at("config_hash").asString(),
              sweep::configHashString(info.configHash));
    EXPECT_EQ(doc.at("backend").asString(), "flow");
    EXPECT_EQ(doc.at("topology").asString(), "Ring(4,100,500)");
    EXPECT_EQ(int(doc.at("npus").asNumber()), 4);
    EXPECT_EQ(uint64_t(doc.at("seed").asNumber()), 7u);
    EXPECT_FALSE(doc.has("from_cache")); // only stamped when true.
    EXPECT_EQ(uint64_t(doc.at("peak_footprint_bytes").asNumber()),
              4096u);
    EXPECT_EQ(uint64_t(doc.at("footprint").at("network").asNumber()),
              3072u);
    EXPECT_DOUBLE_EQ(doc.at("bytes_per_flow").asNumber(), 96.5);
    EXPECT_EQ(uint64_t(doc.at("heartbeats").asNumber()), 12u);
    EXPECT_DOUBLE_EQ(doc.at("wall").at("run").asNumber(), 0.2);
    ASSERT_EQ(doc.at("outputs").asArray().size(), 2u);
    EXPECT_EQ(doc.at("outputs").asArray()[0].asString(),
              "beats.ndjson");

    // An unknown hash serializes as the empty string, not "0...0".
    ManifestInfo anon;
    anon.kind = "sweep";
    EXPECT_EQ(manifestToJson(anon, Report{}).at("config_hash").asString(),
              "");
}

TEST(Telemetry, SimulatorWritesManifestTiedToConfigHash)
{
    std::string path = "telemetry_sim_manifest_test.json";
    TelemetryConfig cfg;
    cfg.manifest = path;
    cfg.configHash = 0x1122334455667788ull;
    Report r = runMixed(NetworkBackendKind::Flow, cfg);

    json::Value doc = json::parseFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(doc.at("run_kind").asString(), "simulator");
    EXPECT_EQ(doc.at("backend").asString(), "flow");
    EXPECT_EQ(int(doc.at("npus").asNumber()), 4);
    EXPECT_EQ(doc.at("config_hash").asString(),
              sweep::configHashString(cfg.configHash));
    // The manifest's footprint matches the report's rollup exactly.
    EXPECT_EQ(uint64_t(doc.at("peak_footprint_bytes").asNumber()),
              r.peakFootprintBytes);
    EXPECT_DOUBLE_EQ(doc.at("bytes_per_flow").asNumber(),
                     r.bytesPerFlow);
    // Manifest-only runs attach no heartbeat monitor.
    EXPECT_EQ(uint64_t(doc.at("heartbeats").asNumber()), 0u);
}

// ------------------------------------------------- sweep integration

std::string
storeBytes(const sweep::SweepSpec &spec,
           const sweep::BatchOutcome &outcome)
{
    sweep::ResultStore store =
        sweep::ResultStore::fromBatch(spec, outcome);
    return store.toCsv() + store.toJson().dump(2);
}

TEST(Telemetry, SweepDeterministicAcrossThreadsWithTelemetryOn)
{
    // Per-row telemetry via the spec's own `telemetry` block: the
    // heartbeat count lands in every report, and the thread-count
    // determinism guarantee must survive monitoring.
    json::Value doc = json::parse(R"json({
      "name": "telemetry-sweep",
      "base": {
        "topology": "Ring(4,100)",
        "backend": "analytical",
        "telemetry": {"interval_events": 64},
        "workload": {"kind": "collective", "collective": "all-reduce",
                     "bytes": 1048576}
      },
      "axes": [
        {"path": "workload.bytes",
         "values": [262144, 1048576, 4194304, 16777216]}
      ]
    })json");
    sweep::SweepSpec spec = sweep::SweepSpec::fromJson(doc);

    std::vector<std::string> rendered;
    for (int threads : {1, 2, 8}) {
        sweep::BatchOptions opts;
        opts.threads = threads;
        sweep::BatchOutcome outcome = sweep::runBatch(spec, opts);
        EXPECT_EQ(outcome.failures, 0u);
        for (const sweep::SweepResult &r : outcome.results)
            EXPECT_GT(r.report.telemetryHeartbeats, 0u);
        rendered.push_back(storeBytes(spec, outcome));
    }
    EXPECT_EQ(rendered[0], rendered[1]);
    EXPECT_EQ(rendered[0], rendered[2]);
}

// ----------------------------------------------- cluster integration

TEST(Telemetry, ClusterHeartbeatsCarryPerJobProgress)
{
    json::Value doc = json::parse(R"json({
      "topology": "Ring(8,100)",
      "backend": "analytical",
      "telemetry": {"interval_events": 32},
      "cluster": {
        "jobs": [
          {"name": "a", "size": 4,
           "workload": {"kind": "collective",
                        "collective": "all-reduce", "bytes": 1048576}},
          {"name": "b", "size": 4,
           "workload": {"kind": "collective",
                        "collective": "all-reduce", "bytes": 2097152}}
        ]
      }
    })json");
    cluster::ClusterScenario scenario = cluster::scenarioFromJson(doc);
    // The cluster config parser stamps the scenario's config hash so
    // manifests are traceable without replumbing.
    EXPECT_NE(scenario.cfg.telemetry.configHash, 0u);
    cluster::ClusterSimulator sim(std::move(scenario.topo),
                                  scenario.cfg);
    for (cluster::JobSpec &job : scenario.jobs)
        sim.addJob(std::move(job));
    cluster::ClusterReport report = sim.run();

    ASSERT_NE(sim.monitor(), nullptr);
    const std::vector<HeartbeatRecord> &beats =
        sim.monitor()->records();
    ASSERT_GT(beats.size(), 1u);
    const HeartbeatRecord &last = beats.back();
    ASSERT_EQ(last.jobs.size(), 2u);
    EXPECT_EQ(last.jobs[0].name, "a");
    EXPECT_EQ(last.jobs[1].name, "b");
    for (const JobProgress &j : last.jobs) {
        EXPECT_GT(j.total, 0u);
        EXPECT_EQ(j.done, j.total); // final beat: both jobs finished.
    }
    EXPECT_DOUBLE_EQ(last.progress, 1.0);
    // The aggregate report rolls up the cluster footprint.
    EXPECT_GT(report.aggregate.peakFootprintBytes, 0u);
    EXPECT_GT(report.aggregate.telemetryHeartbeats, 0u);
}

TEST(Telemetry, ClusterOffVsOnBitIdentical)
{
    auto run = [](bool telemetry_on) {
        json::Value doc = json::parse(R"json({
          "topology": "Ring(8,100)",
          "backend": "flow",
          "cluster": {
            "jobs": [
              {"name": "a", "size": 4,
               "workload": {"kind": "collective",
                            "collective": "all-reduce",
                            "bytes": 1048576}},
              {"name": "b", "size": 4,
               "workload": {"kind": "collective",
                            "collective": "all-reduce",
                            "bytes": 1048576}}
            ]
          }
        })json");
        if (telemetry_on)
            doc.mutableObject()["telemetry"] =
                json::parse(R"({"interval_events": 32})");
        cluster::ClusterScenario scenario =
            cluster::scenarioFromJson(doc);
        cluster::ClusterSimulator sim(std::move(scenario.topo),
                                      scenario.cfg);
        for (cluster::JobSpec &job : scenario.jobs)
            sim.addJob(std::move(job));
        return sim.run();
    };
    cluster::ClusterReport off = run(false);
    cluster::ClusterReport with = run(true);
    EXPECT_EQ(off.aggregate.telemetryHeartbeats, 0u);
    EXPECT_GT(with.aggregate.telemetryHeartbeats, 0u);
    with.aggregate.telemetryHeartbeats = 0;
    EXPECT_EQ(off.toJson().dump(2), with.toJson().dump(2));
}

} // namespace
} // namespace telemetry
} // namespace astra
