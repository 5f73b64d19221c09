#include "astra/config.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/logging.h"
#include "common/output_file.h"
#include "sweep/spec.h"
#include "topology/notation.h"

namespace astra {

NetworkBackendKind
backendFromJson(const json::Value &doc)
{
    std::string name = doc.getString("backend", kBackendNames[0]);
    std::string expected;
    for (size_t i = 0; i < std::size(kBackendNames); ++i) {
        if (name == kBackendNames[i])
            return static_cast<NetworkBackendKind>(i);
        expected += (i == 0 ? "" : " | ") + std::string(kBackendNames[i]);
    }
    fatal("network config: unknown backend '%s' (%s)", name.c_str(),
          expected.c_str());
}

namespace {

RemoteMemoryConfig
pooledFromJson(const json::Value &m, const std::string &path)
{
    json::checkKeys(m, path,
                    {"kind", "architecture", "nodes", "gpus_per_node",
                     "out_node_switches", "remote_memory_groups",
                     "chunk_bytes", "remote_group_bw_gbps",
                     "gpu_side_bw_gbps", "in_node_fabric_bw_gbps",
                     "latency_ns"});
    RemoteMemoryConfig pool;
    std::string arch = m.getString("architecture", poolArchName(pool.arch));
    auto archs = {PoolArch::Hierarchical, PoolArch::MultiLevelSwitch,
                  PoolArch::Ring, PoolArch::Mesh};
    auto it = std::find_if(archs.begin(), archs.end(), [&](PoolArch a) {
        return arch == poolArchName(a);
    });
    ASTRA_USER_CHECK(it != archs.end(),
                     "system config: unknown pool architecture '%s'",
                     arch.c_str());
    pool.arch = *it;
    pool.numNodes = static_cast<int>(m.getInt("nodes", pool.numNodes));
    pool.gpusPerNode =
        static_cast<int>(m.getInt("gpus_per_node", pool.gpusPerNode));
    pool.numOutNodeSwitches = static_cast<int>(
        m.getInt("out_node_switches", pool.numOutNodeSwitches));
    pool.numRemoteMemoryGroups = static_cast<int>(
        m.getInt("remote_memory_groups", pool.numRemoteMemoryGroups));
    pool.chunkBytes = m.getNumber("chunk_bytes", pool.chunkBytes);
    pool.remoteMemGroupBw =
        m.getNumber("remote_group_bw_gbps", pool.remoteMemGroupBw);
    pool.gpuSideOutNodeBw =
        m.getNumber("gpu_side_bw_gbps", pool.gpuSideOutNodeBw);
    pool.inNodeFabricBw =
        m.getNumber("in_node_fabric_bw_gbps", pool.inNodeFabricBw);
    pool.baseLatency = m.getNumber("latency_ns", pool.baseLatency);
    return pool;
}

/** `doc[name]` with the keys of `flags[name]` written over it. */
json::Value
layeredBlock(const json::Value &doc, const json::Value &flags,
             const char *name)
{
    json::Value block =
        doc.has(name) ? doc.at(name).clone() : json::Value(json::Object{});
    if (flags.has(name) && block.isObject())
        for (const auto &[key, value] : flags.at(name).asObject())
            block.mutableObject()[key] = value;
    return block;
}

} // namespace

SimulatorConfig
simulatorConfigFromJson(const json::Value &system_doc,
                        NetworkBackendKind backend, const std::string &path)
{
    json::checkKeys(system_doc, path,
                    {"peak_tflops", "compute_mem_bw_gbps",
                     "kernel_overhead_ns", "collective_chunks",
                     "scheduling_policy", "serialize_chunks", "local_memory",
                     "remote_memory"});
    SimulatorConfig cfg;
    cfg.backend = backend;
    ComputeConfig &compute = cfg.sys.compute;
    compute.peakTflops =
        system_doc.getNumber("peak_tflops", compute.peakTflops);
    compute.memBandwidth =
        system_doc.getNumber("compute_mem_bw_gbps", compute.memBandwidth);
    compute.kernelOverhead =
        system_doc.getNumber("kernel_overhead_ns", compute.kernelOverhead);
    cfg.sys.collectiveChunks = static_cast<int>(
        system_doc.getInt("collective_chunks", cfg.sys.collectiveChunks));
    std::string policy =
        system_doc.getString("scheduling_policy", "baseline");
    if (policy == "themis")
        cfg.sys.policy = SchedPolicy::Themis;
    else if (policy == "baseline")
        cfg.sys.policy = SchedPolicy::Baseline;
    else
        fatal("system config: unknown scheduling_policy '%s'",
              policy.c_str());
    cfg.sys.serializeChunks =
        system_doc.getBool("serialize_chunks", cfg.sys.serializeChunks);

    // Numeric sanity: NaN or non-positive rates would otherwise be
    // silently accepted and surface as nonsense times (or infinite
    // loops) deep in the simulation.
    auto require_positive = [](double v, const char *key) {
        ASTRA_USER_CHECK(std::isfinite(v) && v > 0.0,
                         "system config: '%s' must be a positive "
                         "finite number, got %g",
                         key, v);
    };
    auto require_non_negative = [](double v, const char *key) {
        ASTRA_USER_CHECK(std::isfinite(v) && v >= 0.0,
                         "system config: '%s' must be a non-negative "
                         "finite number, got %g",
                         key, v);
    };
    require_positive(compute.peakTflops, "peak_tflops");
    require_positive(compute.memBandwidth, "compute_mem_bw_gbps");
    require_non_negative(compute.kernelOverhead, "kernel_overhead_ns");

    if (system_doc.has("local_memory")) {
        const json::Value &m = system_doc.at("local_memory");
        json::checkKeys(m, path + ".local_memory",
                        {"bandwidth_gbps", "latency_ns"});
        cfg.localMem.bandwidth =
            m.getNumber("bandwidth_gbps", cfg.localMem.bandwidth);
        cfg.localMem.latency =
            m.getNumber("latency_ns", cfg.localMem.latency);
        require_positive(cfg.localMem.bandwidth,
                         "local_memory.bandwidth_gbps");
        require_non_negative(cfg.localMem.latency,
                             "local_memory.latency_ns");
    }

    if (system_doc.has("remote_memory")) {
        const json::Value &m = system_doc.at("remote_memory");
        std::string remote_path = path + ".remote_memory";
        std::string kind = m.getString("kind", "pooled");
        if (kind == "pooled") {
            cfg.pooledMem = pooledFromJson(m, remote_path);
        } else if (kind == "zero-infinity") {
            json::checkKeys(m, remote_path,
                            {"kind", "tier_bw_gbps", "latency_ns"});
            ZeroInfinityConfig zero;
            zero.tierBandwidth =
                m.getNumber("tier_bw_gbps", zero.tierBandwidth);
            zero.baseLatency =
                m.getNumber("latency_ns", zero.baseLatency);
            cfg.zeroInfinityMem = zero;
        } else {
            fatal("system config: unknown remote_memory kind '%s'",
                  kind.c_str());
        }
    }
    return cfg;
}

RunBlocks
runBlocksFromJson(const json::Value &doc, const json::Value &flags)
{
    ASTRA_USER_CHECK(doc.has("topology"), "config: missing 'topology'");
    RunBlocks run{topologyFromJson(doc.at("topology")), {}};
    run.cfg.backend = backendFromJson(doc);
    if (doc.has("fault"))
        run.cfg.fault = fault::faultConfigFromJson(doc.at("fault"), "fault");
    run.cfg.trace = trace::traceConfigFromJson(
        layeredBlock(doc, flags, "trace"), "trace");
    run.cfg.telemetry = telemetry::telemetryConfigFromJson(
        layeredBlock(doc, flags, "telemetry"), "telemetry");
    // Provenance for the run's manifest: the hash of the document
    // itself (the sweep cache identity), not of the flags.
    run.cfg.telemetry.configHash = sweep::configHash(doc);
    return run;
}

json::Value
cliOverrides(const CommandLine &cl, const char *trace_file_flag)
{
    json::Value flags;
    json::Object &blocks = flags.mutableObject();
    cl.writeKeys(trace::cliFlags(trace_file_flag), blocks["trace"]);
    cl.writeKeys(telemetry::cliFlags(), blocks["telemetry"]);
    return flags;
}

json::Value
astraSimDoc(const json::Value &network, const json::Value &system)
{
    json::checkKeys(network, "network", {"topology", "backend"});
    ASTRA_USER_CHECK(network.has("topology"),
                     "network config needs \"topology\" (a preset name or "
                     "notation string)");
    json::Object doc;
    doc["topology"] = network.at("topology");
    if (network.has("backend"))
        doc["backend"] = network.at("backend");
    doc["system"] = system;
    return json::Value(std::move(doc));
}

void
writeSampleConfigs(const std::string &network_path,
                   const std::string &system_path)
{
    OutputFile::write(network_path, "sample file", json::parse(R"json({
      "topology": "Ring(2,250)_FC(8,200)_Ring(8,100)_Switch(4,50)",
      "backend": "analytical"
    })json").dump(2) + "\n");
    // The library defaults (SimulatorConfig{}): the paper's A100 system.
    OutputFile::write(system_path, "sample file", json::parse(R"json({
      "peak_tflops": 234,
      "compute_mem_bw_gbps": 2039,
      "kernel_overhead_ns": 0,
      "collective_chunks": 8,
      "scheduling_policy": "baseline",
      "serialize_chunks": false,
      "local_memory": {"bandwidth_gbps": 4096, "latency_ns": 100}
    })json").dump(2) + "\n");
}

} // namespace astra
