/** @file Tests for JSON config loading (network + system documents). */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>

#include "astra/config.h"
#include "common/logging.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "workload/builders.h"

namespace astra {
namespace {

/** The topology astra_sim reads from network document `net`. */
Topology
networkTopology(const json::Value &net)
{
    return runBlocksFromJson(astraSimDoc(net, json::parse("{}"))).topo;
}

TEST(Config, TopologyFromNotationString)
{
    json::Value doc = json::parse(
        R"json({"topology": "R(4,250)_SW(2,50)",
                "backend": "analytical"})json");
    Topology topo = networkTopology(doc);
    EXPECT_EQ(topo.npus(), 8);
    EXPECT_DOUBLE_EQ(topo.dim(0).bandwidth, 250.0);
    EXPECT_EQ(backendFromJson(doc), NetworkBackendKind::Analytical);
}

TEST(Config, TopologyIsAPresetOrNotationString)
{
    json::Value doc = json::parse(
        R"json({"topology": "Conv4D", "backend": "packet"})json");
    Topology topo = networkTopology(doc);
    EXPECT_EQ(topo.shapeString(), "2_8_8_4");
    EXPECT_DOUBLE_EQ(topo.dim(3).bandwidth, 50.0);
    EXPECT_DOUBLE_EQ(topo.dim(3).latency, 500.0); // default.
    EXPECT_EQ(backendFromJson(doc), NetworkBackendKind::Packet);
    // Neither a network `dims` key nor a dims object is read.
    EXPECT_THROW(networkTopology(json::parse(
                     R"({"dims": [{"type": "Ring", "size": 2}]})")),
                 FatalError);
    EXPECT_THROW(networkTopology(json::parse(
                     R"({"topology": {"dims": [{"type": "Ring",
                                                 "size": 2}]}})")),
                 FatalError);
}

TEST(Config, SystemConfigParses)
{
    SimulatorConfig back = simulatorConfigFromJson(
        json::parse(R"json({
          "peak_tflops": 2048, "collective_chunks": 16,
          "scheduling_policy": "themis",
          "local_memory": {"bandwidth_gbps": 4096},
          "remote_memory": {"kind": "pooled", "architecture": "mesh",
                            "in_node_fabric_bw_gbps": 512}
        })json"),
        NetworkBackendKind::Analytical);
    EXPECT_DOUBLE_EQ(back.sys.compute.peakTflops, 2048.0);
    EXPECT_EQ(back.sys.collectiveChunks, 16);
    EXPECT_EQ(back.sys.policy, SchedPolicy::Themis);
    ASSERT_TRUE(back.pooledMem.has_value());
    EXPECT_EQ(back.pooledMem->arch, PoolArch::Mesh);
    EXPECT_DOUBLE_EQ(back.pooledMem->inNodeFabricBw, 512.0);
}

TEST(Config, ZeroInfinityParses)
{
    SimulatorConfig back = simulatorConfigFromJson(
        json::parse(
            R"({"remote_memory": {"kind": "zero-infinity",
                                  "tier_bw_gbps": 123}})"),
        NetworkBackendKind::Analytical);
    ASSERT_TRUE(back.zeroInfinityMem.has_value());
    EXPECT_DOUBLE_EQ(back.zeroInfinityMem->tierBandwidth, 123.0);
    EXPECT_FALSE(back.pooledMem.has_value());
}

TEST(Config, DefaultsMatchPaperSystem)
{
    SimulatorConfig cfg = simulatorConfigFromJson(
        json::parse("{}"), NetworkBackendKind::Analytical);
    EXPECT_DOUBLE_EQ(cfg.sys.compute.peakTflops, 234.0); // A100, §V.
    EXPECT_EQ(cfg.sys.policy, SchedPolicy::Baseline);
    EXPECT_FALSE(cfg.pooledMem.has_value());
}

TEST(Config, SampleConfigsLoadAndRun)
{
    std::string dir = testing::TempDir();
    writeSampleConfigs(dir + "/net.json", dir + "/sys.json");
    json::Value net = json::parseFile(dir + "/net.json");
    json::Value sys = json::parseFile(dir + "/sys.json");
    Topology topo = networkTopology(net);
    EXPECT_EQ(topo.npus(), 512); // the paper's Conv-4D.
    SimulatorConfig cfg =
        simulatorConfigFromJson(sys, backendFromJson(net));
    // Small smoke run on a reduced version of the same stack.
    Topology small({{BlockType::Ring, 2, 250.0, 500.0},
                    {BlockType::Switch, 2, 50.0, 500.0}});
    Simulator sim(small, cfg);
    Report r = sim.run(
        buildSingleCollective(small, CollectiveType::AllReduce, 1e6));
    EXPECT_GT(r.totalTime, 0.0);
}

TEST(Config, RejectsBadDocuments)
{
    EXPECT_THROW(networkTopology(json::parse("{}")), FatalError);
    EXPECT_THROW(backendFromJson(json::parse(
                     R"({"backend": "garnet"})")),
                 FatalError);
    EXPECT_THROW(
        simulatorConfigFromJson(
            json::parse(R"({"scheduling_policy": "magic"})"),
            NetworkBackendKind::Analytical),
        FatalError);
    EXPECT_THROW(
        simulatorConfigFromJson(
            json::parse(R"({"remote_memory": {"kind": "nvswitch"}})"),
            NetworkBackendKind::Analytical),
        FatalError);
    EXPECT_THROW(
        simulatorConfigFromJson(
            json::parse(
                R"({"remote_memory": {"kind": "pooled",
                     "architecture": "hypercube"}})"),
            NetworkBackendKind::Analytical),
        FatalError);
}

TEST(Config, SampleSystemConfigIsTheLibraryDefault)
{
    std::string dir = testing::TempDir();
    writeSampleConfigs(dir + "/net.json", dir + "/sys.json");
    json::Value doc = astraSimDoc(json::parseFile(dir + "/net.json"),
                                  json::parseFile(dir + "/sys.json"));
    RunBlocks run = runBlocksFromJson(doc);
    SimulatorConfig cfg =
        simulatorConfigFromJson(doc.at("system"), run.cfg.backend);
    SimulatorConfig dflt;
    EXPECT_EQ(cfg.backend, dflt.backend);
    EXPECT_EQ(cfg.sys.compute.peakTflops, dflt.sys.compute.peakTflops);
    EXPECT_EQ(cfg.sys.compute.memBandwidth, dflt.sys.compute.memBandwidth);
    EXPECT_EQ(cfg.sys.compute.kernelOverhead,
              dflt.sys.compute.kernelOverhead);
    EXPECT_EQ(cfg.sys.collectiveChunks, dflt.sys.collectiveChunks);
    EXPECT_EQ(cfg.sys.policy, dflt.sys.policy);
    EXPECT_EQ(cfg.sys.serializeChunks, dflt.sys.serializeChunks);
    EXPECT_EQ(cfg.localMem.bandwidth, dflt.localMem.bandwidth);
    EXPECT_EQ(cfg.localMem.latency, dflt.localMem.latency);
    EXPECT_FALSE(cfg.pooledMem.has_value());
    EXPECT_FALSE(cfg.zeroInfinityMem.has_value());
    EXPECT_FALSE(run.cfg.fault.has_value());
    EXPECT_FALSE(run.cfg.trace.enabled());
    EXPECT_FALSE(run.cfg.telemetry.enabled());
}

void
expectSameTrace(const trace::TraceConfig &a, const trace::TraceConfig &b,
                const std::string &what)
{
    EXPECT_EQ(a.file, b.file) << what;
    EXPECT_EQ(a.detail, b.detail) << what;
    EXPECT_EQ(a.utilizationBucketNs, b.utilizationBucketNs) << what;
    EXPECT_EQ(a.utilizationFile, b.utilizationFile) << what;
    EXPECT_EQ(a.analysis, b.analysis) << what;
    EXPECT_EQ(a.analysisFile, b.analysisFile) << what;
}

void
expectSameTelemetry(const telemetry::TelemetryConfig &a,
                    const telemetry::TelemetryConfig &b,
                    const std::string &what)
{
    EXPECT_EQ(a.file, b.file) << what;
    EXPECT_EQ(a.intervalMs, b.intervalMs) << what;
    EXPECT_EQ(a.intervalEvents, b.intervalEvents) << what;
    EXPECT_EQ(a.manifest, b.manifest) << what;
    EXPECT_EQ(a.configHash, b.configHash) << what;
}

TEST(Config, EveryTraceAndTelemetryFlagMeansItsJsonKey)
{
    // flag -> {value on the command line ("" for a switch), the JSON
    // block that says the same}. A new flag must be added here.
    const std::map<std::string, std::pair<std::string, std::string>>
        same = {
            {"trace-out", {"t.json", R"({"file": "t.json"})"}},
            {"trace-detail", {"full", R"({"detail": "full"})"}},
            {"trace-util", {"u.csv", R"({"utilization_file": "u.csv"})"}},
            {"trace-util-bucket",
             {"500", R"({"utilization_bucket_ns": 500})"}},
            {"trace-analysis", {"", R"({"analysis": true})"}},
            {"trace-analysis-out",
             {"a.json", R"({"analysis_file": "a.json"})"}},
            {"heartbeat", {"b.ndjson", R"({"file": "b.ndjson"})"}},
            {"heartbeat-interval-ms", {"250", R"({"interval_ms": 250})"}},
            {"heartbeat-events", {"1024", R"({"interval_events": 1024})"}},
            {"manifest", {"m.json", R"({"manifest": "m.json"})"}}};
    FlagGroup trace_flags = trace::cliFlags("trace-out");
    FlagGroup telemetry_flags = telemetry::cliFlags();
    FlagGroup all = trace_flags;
    all.insert(all.end(), telemetry_flags.begin(), telemetry_flags.end());

    json::Value doc = json::parse(R"j({"topology": "Ring(4,100)"})j");
    std::vector<std::string> every = {"prog"};
    for (const Flag &flag : all) {
        auto it = same.find(flag.name);
        ASSERT_NE(it, same.end()) << "no JSON twin for --" << flag.name;
        std::vector<std::string> args = {"prog",
                                         std::string("--") + flag.name};
        if (!it->second.first.empty())
            args.push_back(it->second.first);
        every.insert(every.end(), args.begin() + 1, args.end());
        std::vector<const char *> argv;
        for (const std::string &a : args)
            argv.push_back(a.c_str());
        CommandLine cl(static_cast<int>(argv.size()), argv.data(), all);

        bool is_trace = std::any_of(
            trace_flags.begin(), trace_flags.end(),
            [&](const Flag &f) { return f.name == flag.name; });
        json::Value block = json::parse(it->second.second);
        json::Value file_doc = doc.clone();
        file_doc.mutableObject()[is_trace ? "trace" : "telemetry"] = block;
        RunBlocks from_flags = runBlocksFromJson(
            doc, cliOverrides(cl, "trace-out"));
        RunBlocks from_json = runBlocksFromJson(file_doc);
        std::string what = std::string("--") + flag.name;
        expectSameTrace(from_flags.cfg.trace, from_json.cfg.trace, what);
        from_json.cfg.telemetry.configHash =
            from_flags.cfg.telemetry.configHash;
        expectSameTelemetry(from_flags.cfg.telemetry,
                            from_json.cfg.telemetry, what);
        if (is_trace)
            expectSameTrace(trace::traceConfigFromCli(cl, "trace-out"),
                            trace::traceConfigFromJson(block, "trace"),
                            what);
        else
            expectSameTelemetry(
                telemetry::telemetryConfigFromCli(cl),
                telemetry::telemetryConfigFromJson(block, "telemetry"),
                what);
    }

    // All flags at once equal both blocks at once, and write over a
    // file's blocks key by key.
    std::vector<const char *> argv;
    for (const std::string &a : every)
        argv.push_back(a.c_str());
    CommandLine cl(static_cast<int>(argv.size()), argv.data(), all);
    json::Value file_doc = json::parse(R"j({
      "topology": "Ring(4,100)",
      "trace": {"file": "old.json", "detail": "spans",
                "utilization_bucket_ns": 7},
      "telemetry": {"file": "old.ndjson", "interval_events": 8}})j");
    json::Value merged_doc = doc.clone();
    json::Object &blocks = merged_doc.mutableObject();
    for (const auto &[flag, twin] : same) {
        const char *block = flag.rfind("trace", 0) == 0 ? "trace"
                                                         : "telemetry";
        json::Value keys = json::parse(twin.second);
        for (const auto &[key, value] : keys.asObject())
            blocks[block].mutableObject()[key] = value;
    }
    RunBlocks from_flags =
        runBlocksFromJson(file_doc, cliOverrides(cl, "trace-out"));
    RunBlocks from_json = runBlocksFromJson(merged_doc);
    expectSameTrace(from_flags.cfg.trace, from_json.cfg.trace, "all");
    // The manifest hash is the file's, whatever the flags say.
    EXPECT_EQ(from_flags.cfg.telemetry.configHash,
              sweep::configHash(file_doc));
    from_json.cfg.telemetry.configHash =
        from_flags.cfg.telemetry.configHash;
    expectSameTelemetry(from_flags.cfg.telemetry, from_json.cfg.telemetry,
                        "all");
}

TEST(Config, ImpliedTraceAndTelemetryDefaults)
{
    auto trace = [](const char *text) {
        return trace::traceConfigFromJson(json::parse(text), "trace");
    };
    EXPECT_EQ(trace(R"({"file": "t.json"})").detail, trace::Detail::Spans);
    EXPECT_EQ(trace(R"({"utilization_file": "u.csv"})").detail,
              trace::Detail::Spans);
    EXPECT_EQ(trace(R"({"analysis": true})").detail, trace::Detail::Full);
    EXPECT_EQ(trace(R"({"analysis_file": "a.json"})").detail,
              trace::Detail::Full);
    EXPECT_EQ(trace(R"({"analysis": true, "file": "t.json"})").detail,
              trace::Detail::Spans);
    EXPECT_EQ(trace(R"({"file": "t.json", "detail": "off"})").detail,
              trace::Detail::Off);
    EXPECT_EQ(trace("{}").detail, trace::Detail::Off);

    auto telemetry = [](const char *text) {
        return telemetry::telemetryConfigFromJson(json::parse(text),
                                                  "telemetry");
    };
    EXPECT_EQ(telemetry(R"({"file": "b.ndjson"})").intervalEvents,
              telemetry::kDefaultIntervalEvents);
    EXPECT_EQ(
        telemetry(R"({"file": "b.ndjson", "interval_ms": 5})").intervalEvents,
        0u);
    EXPECT_EQ(telemetry(R"({"manifest": "m.json"})").intervalEvents, 0u);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** Run a 4-NPU all-reduce config whose `trace` block is `trace`. */
void
runTraced(const std::string &trace)
{
    sweep::MaterializedConfig mat =
        sweep::materializeConfig(json::parse(R"j({
          "topology": "Ring(4,100)",
          "workload": {"kind": "collective", "bytes": 1048576},
          "trace": )j" + trace + "}"));
    Simulator sim(std::move(mat.topo), mat.cfg);
    sim.run(mat.workload);
}

TEST(Config, JsonTraceFileWithoutDetailWritesSpans)
{
    std::string path = testing::TempDir() + "/implied_spans.json";
    std::remove(path.c_str());
    runTraced(R"({"file": ")" + path + R"("})");
    json::Value doc = json::parseFile(path);
    size_t spans = 0;
    for (const json::Value &ev : doc.at("traceEvents").asArray())
        spans += ev.getString("ph", "") == "X";
    EXPECT_GT(spans, 0u);
    std::remove(path.c_str());
}

TEST(Config, JsonUtilizationFileWithoutBucketWritesSeries)
{
    std::string path = testing::TempDir() + "/implied_bucket.csv";
    std::remove(path.c_str());
    runTraced(R"({"detail": "spans", "utilization_file": ")" + path +
              R"("})");
    std::string csv = readFile(path);
    EXPECT_EQ(csv.rfind("link,bucket_start_ns,busy_fraction\n", 0), 0u);
    EXPECT_GT(std::count(csv.begin(), csv.end(), '\n'), 1);
    std::remove(path.c_str());
}

TEST(Config, DetailOffListsNoTraceFiles)
{
    // Detail "off" records nothing: neither the "wrote" echo nor the
    // manifest may claim the trace or utilization file.
    sweep::MaterializedConfig mat = sweep::materializeConfig(json::parse(
        R"j({"topology": "Ring(4,100)",
             "workload": {"kind": "collective", "bytes": 1024},
             "telemetry": {"file": "b.ndjson"},
             "trace": {"detail": "off", "file": "t.json",
                       "utilization_file": "u.csv",
                       "utilization_bucket_ns": 1000000}})j"));
    EXPECT_EQ(mat.cfg.outputFiles(), std::vector<std::string>{"b.ndjson"});
    mat.cfg.trace.detail = trace::Detail::Spans;
    EXPECT_EQ(mat.cfg.outputFiles(),
              (std::vector<std::string>{"b.ndjson", "t.json", "u.csv"}));
}

/** The message fatal() gives for `fn`, or "" if it does not throw. */
template <class Fn>
std::string
errorOf(Fn fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(Config, EveryBlockRejectsUnknownKeys)
{
    const char *base = R"j({
      "topology": "Ring(4,100)",
      "workload": {"kind": "collective", "bytes": 1024}})j";
    // path to set -> the key path the error must name.
    const std::vector<std::pair<std::string, std::string>> typos = {
        {"system.peak_tflop", "system.peak_tflop"},
        {"system.local_memory.bandwidth_gbs",
         "system.local_memory.bandwidth_gbs"},
        {"system.remote_memory.in_node_fabric_bw_gbs",
         "system.remote_memory.in_node_fabric_bw_gbs"},
        {"workload.microbatches", "workload.microbatches"}};
    for (const auto &[path, named] : typos) {
        json::Value doc = json::parse(base);
        sweep::applyOverride(doc, path, json::Value(1.0));
        std::string err =
            errorOf([&] { sweep::materializeConfig(doc); });
        EXPECT_NE(err.find(named), std::string::npos)
            << path << ": " << err;
    }

    json::Value zero = json::parse(base);
    sweep::applyOverride(zero, "system.remote_memory",
                         json::parse(R"({"kind": "zero-infinity",
                                         "tier_bw_gbs": 5})"));
    EXPECT_NE(errorOf([&] { sweep::materializeConfig(zero); })
                  .find("system.remote_memory.tier_bw_gbs"),
              std::string::npos);

    json::Value dims = json::parse(base);
    dims.mutableObject()["topology"] =
        json::parse(R"({"dims": [{"type": "Ring", "size": 4}]})");
    EXPECT_NE(errorOf([&] { sweep::materializeConfig(dims); })
                  .find("topology: must be a preset name or a notation "
                        "string"),
              std::string::npos);

    for (const char *kind : {"hybrid", "dlrm", "pipeline", "moe"}) {
        json::Value doc = json::parse(base);
        doc.mutableObject()["workload"] = json::parse(
            std::string(R"({"model": "gpt3", "byts": 1, "kind": ")") +
            kind + "\"}");
        EXPECT_NE(errorOf([&] { sweep::materializeConfig(doc); })
                      .find("workload.byts"),
                  std::string::npos)
            << kind;
    }

    EXPECT_NE(errorOf([] {
                  astraSimDoc(json::parse(R"j({"topology": "Ring(4,100)",
                                               "packet_bytes": 4096})j"),
                              json::parse("{}"));
              }).find("network.packet_bytes"),
              std::string::npos);
}

TEST(Config, TypoedSweepAxisFailsEveryRowAndNamesThePath)
{
    std::string path = testing::TempDir() + "/typo_spec.json";
    sweep::writeSampleSpec(path);
    json::Value doc = json::parseFile(path);
    std::remove(path.c_str());
    json::Value &axis = doc.mutableObject()["axes"].mutableArray()[0];
    ASSERT_EQ(axis.at("path").asString(),
              "system.remote_memory.in_node_fabric_bw_gbps");
    axis.mutableObject()["path"] =
        json::Value("system.remote_memory.in_node_fabric_bw_gbs");
    sweep::SweepSpec spec = sweep::SweepSpec::fromJson(doc);
    sweep::BatchOptions opts;
    opts.threads = 1;
    sweep::BatchOutcome out = sweep::runBatch(spec, opts);
    ASSERT_EQ(out.results.size(), spec.configCount());
    EXPECT_EQ(out.failures, spec.configCount());
    for (const sweep::SweepResult &r : out.results) {
        EXPECT_TRUE(r.failed);
        EXPECT_NE(
            r.error.find("system.remote_memory.in_node_fabric_bw_gbs"),
            std::string::npos)
            << r.error;
    }
}

} // namespace
} // namespace astra
