#include "bench_util.h"

#include <chrono>

#include "common/logging.h"
#include "network/detailed/packet_network.h"

namespace astra {
namespace bench {

CollectiveResult
runCollectiveOn(const Topology &topo, NetworkBackendKind backend,
                const CollectiveRequest &req, Bytes packet_bytes,
                Bytes header_bytes, TimeNs message_overhead)
{
    EventQueue eq;
    std::unique_ptr<NetworkApi> net;
    if (backend == NetworkBackendKind::Packet) {
        net = std::make_unique<PacketNetwork>(
            eq, topo, packet_bytes, header_bytes, message_overhead);
    } else {
        net = makeNetwork(backend, eq, topo);
    }
    CollectiveEngine engine(*net);

    auto start = std::chrono::steady_clock::now();
    CollectiveRunResult run = runCollective(engine, req);
    auto end = std::chrono::steady_clock::now();

    CollectiveResult result;
    result.time = run.finish;
    result.wallSeconds =
        std::chrono::duration<double>(end - start).count();
    result.events = eq.executedEvents();
    result.sentPerDim = run.sentPerDim;
    return result;
}

std::vector<SystemUnderTest>
fig9Systems()
{
    std::vector<SystemUnderTest> systems;
    systems.push_back({"W-1D-350", presets::wafer1D(350.0)});
    systems.push_back({"W-1D-500", presets::wafer1D(500.0)});
    systems.push_back({"W-1D-600", presets::wafer1D(600.0)});
    systems.push_back({"W-2D-500", presets::wafer2D()});
    systems.push_back({"Conv-3D", presets::conv3D()});
    systems.push_back({"Conv-4D", presets::conv4D()});
    return systems;
}

const char *
fig9WorkloadName(Fig9Workload w)
{
    switch (w) {
      case Fig9Workload::AllReduce1GB: return "All-Reduce(1GB)";
      case Fig9Workload::Dlrm: return "DLRM";
      case Fig9Workload::Gpt3: return "GPT-3";
      case Fig9Workload::Transformer1T: return "T-1T";
    }
    return "?";
}

std::vector<Fig9Workload>
fig9Workloads()
{
    return {Fig9Workload::AllReduce1GB, Fig9Workload::Dlrm,
            Fig9Workload::Gpt3, Fig9Workload::Transformer1T};
}

int
mpOf(Fig9Workload w)
{
    switch (w) {
      case Fig9Workload::AllReduce1GB:
      case Fig9Workload::Dlrm:
        return 1; // whole-system collectives / pure DP.
      case Fig9Workload::Gpt3:
        return 16; // Table III.
      case Fig9Workload::Transformer1T:
        return 128; // Table III.
    }
    return 1;
}

Workload
buildFig9Workload(const Topology &topo, Fig9Workload w)
{
    switch (w) {
      case Fig9Workload::AllReduce1GB:
        return buildSingleCollective(topo, CollectiveType::AllReduce,
                                     1.0 * kGiB);
      case Fig9Workload::Dlrm:
        return buildDlrm(topo, dlrm(), {});
      case Fig9Workload::Gpt3: {
        HybridOptions opts;
        opts.mp = mpOf(w);
        return buildHybridTransformer(topo, gpt3(), opts);
      }
      case Fig9Workload::Transformer1T: {
        HybridOptions opts;
        opts.mp = mpOf(w);
        return buildHybridTransformer(topo, transformer1T(), opts);
      }
    }
    panic("unknown workload");
}

Report
runFig9Cell(const Topology &topo, Fig9Workload w, SchedPolicy policy,
            bool serialize_chunks)
{
    SimulatorConfig cfg;
    cfg.sys.compute.peakTflops = 234.0; // §V: A100 measurement.
    cfg.sys.policy = policy;
    cfg.sys.serializeChunks = serialize_chunks;
    // The single collective pipelines finely (Table IV regime);
    // training workloads use a coarser chunking to bound event counts.
    cfg.sys.collectiveChunks =
        (w == Fig9Workload::AllReduce1GB) ? 16 : 4;
    Simulator sim(topo, cfg);
    return sim.run(buildFig9Workload(topo, w));
}

double
wallSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace bench
} // namespace astra
