/** @file End-to-end tests of the Simulator facade. */
#include <gtest/gtest.h>

#include <string>

#include "astra/simulator.h"
#include "common/logging.h"
#include "topology/notation.h"
#include "workload/builders.h"
#include "workload/et_json.h"

namespace astra {
namespace {

TEST(Simulator, SingleCollectiveEndToEnd)
{
    Topology topo({{BlockType::Ring, 4, 100.0, 500.0}});
    SimulatorConfig cfg;
    cfg.sys.collectiveChunks = 1;
    Simulator sim(topo, cfg);
    Workload wl =
        buildSingleCollective(topo, CollectiveType::AllReduce, 4e6);
    Report report = sim.run(wl);
    TimeNs expect = 2 * 3 * (1e6 / 100.0 + 500.0);
    EXPECT_NEAR(report.totalTime, expect, 1e-6);
    // The whole run is exposed communication.
    EXPECT_NEAR(report.average.exposedComm, expect, 1e-6);
    EXPECT_NEAR(report.exposedCommFraction(), 1.0, 1e-9);
    EXPECT_GT(report.events, 0u);
    EXPECT_GT(report.messages, 0u);
}

TEST(Simulator, HybridTrainingProducesSaneBreakdown)
{
    Topology topo({{BlockType::Ring, 2, 100.0, 100.0},
                   {BlockType::Switch, 4, 50.0, 100.0}});
    SimulatorConfig cfg;
    Simulator sim(topo, cfg);
    HybridOptions opts;
    opts.mp = 2;
    opts.simLayers = 4;
    Workload wl = buildHybridTransformer(topo, gpt3(), opts);
    Report report = sim.run(wl);
    EXPECT_GT(report.totalTime, 0.0);
    EXPECT_GT(report.average.compute, 0.0);
    EXPECT_GT(report.average.exposedComm, 0.0);
    // Every NPU's breakdown integrates to the total time.
    for (const RuntimeBreakdown &b : report.perNpu)
        EXPECT_NEAR(b.total(), report.totalTime, 1.0);
    EXPECT_EQ(report.perNpu.size(), 8u);
    EXPECT_FALSE(report.summary().empty());
}

TEST(Simulator, PipelineBubblesShowAsIdle)
{
    Topology topo({{BlockType::Ring, 4, 100.0, 100.0}});
    Simulator sim(topo);
    PipelineOptions opts;
    opts.microbatches = 4;
    Workload wl = buildPipelineParallel(topo, gpt3(), opts);
    Report report = sim.run(wl);
    // Later stages wait for the first activations: the pipeline fill
    // and drain must appear as idle/comm time, not compute.
    EXPECT_GT(report.average.idle + report.average.exposedComm, 0.0);
    // Stage 0 computes first; stage 3 idles first.
    EXPECT_GT(report.perNpu[3].idle + report.perNpu[3].exposedComm,
              report.perNpu[0].idle * 0.99);
}

TEST(Simulator, MoreMicrobatchesShrinkBubbleFraction)
{
    Topology topo({{BlockType::Ring, 4, 200.0, 100.0}});
    PipelineOptions few;
    few.microbatches = 2;
    PipelineOptions many;
    many.microbatches = 16;

    Simulator sim_few(topo);
    Report r_few =
        sim_few.run(buildPipelineParallel(topo, gpt3(), few));
    Simulator sim_many(topo);
    Report r_many =
        sim_many.run(buildPipelineParallel(topo, gpt3(), many));

    double idle_few = r_few.average.idle / r_few.totalTime;
    double idle_many = r_many.average.idle / r_many.totalTime;
    EXPECT_LT(idle_many, idle_few);
}

TEST(Simulator, DimUtilizationReflectsTraffic)
{
    // A 1-chunk Ring(4) All-Reduce keeps the single dimension's ports
    // busy for 2*(3/4)*S/B out of the total; utilization must match.
    Topology topo({{BlockType::Ring, 4, 100.0, 0.0}});
    SimulatorConfig cfg;
    cfg.sys.collectiveChunks = 1;
    Simulator sim(topo, cfg);
    Report r = sim.run(
        buildSingleCollective(topo, CollectiveType::AllReduce, 4e6));
    std::vector<double> util = r.dimUtilization(topo);
    ASSERT_EQ(util.size(), 1u);
    // Sent per NPU = 2*(3/4)*4e6 = 6e6 bytes over 100 GB/s; the ring
    // chain takes exactly that long -> utilization 1.0.
    EXPECT_NEAR(util[0], 1.0, 1e-6);

    // Themis on a 2-dim system keeps both dims busier than baseline.
    Topology two({{BlockType::Switch, 8, 100.0, 0.0},
                  {BlockType::Switch, 8, 100.0, 0.0}});
    SimulatorConfig base_cfg;
    base_cfg.sys.serializeChunks = true;
    Simulator base_sim(two, base_cfg);
    Report base = base_sim.run(
        buildSingleCollective(two, CollectiveType::AllReduce, 64e6));
    SimulatorConfig themis_cfg;
    themis_cfg.sys.policy = SchedPolicy::Themis;
    Simulator themis_sim(two, themis_cfg);
    Report themis = themis_sim.run(
        buildSingleCollective(two, CollectiveType::AllReduce, 64e6));
    double base_min = std::min(base.dimUtilization(two)[0],
                               base.dimUtilization(two)[1]);
    double themis_min = std::min(themis.dimUtilization(two)[0],
                                 themis.dimUtilization(two)[1]);
    EXPECT_GT(themis_min, base_min * 1.5);
}

TEST(Simulator, RunIsSingleShot)
{
    Topology topo({{BlockType::Ring, 2, 100.0, 100.0}});
    Simulator sim(topo);
    Workload wl =
        buildSingleCollective(topo, CollectiveType::AllGather, 1e6);
    sim.run(wl);
    EXPECT_THROW(sim.run(wl), FatalError);
}

TEST(Simulator, PacketBackendRunsSameWorkload)
{
    Topology topo({{BlockType::Ring, 4, 100.0, 500.0}});
    SimulatorConfig cfg;
    cfg.backend = NetworkBackendKind::Packet;
    cfg.sys.collectiveChunks = 1;
    Simulator sim(topo, cfg);
    Workload wl =
        buildSingleCollective(topo, CollectiveType::AllReduce, 4e6);
    Report report = sim.run(wl);
    // Packet-level result within a few % of the analytical closed
    // form (Fig. 4's premise).
    TimeNs analytical = 2 * 3 * (1e6 / 100.0 + 500.0);
    EXPECT_NEAR(report.totalTime, analytical, analytical * 0.05);
}

TEST(Simulator, TraceFileRoundTripExecutesIdentically)
{
    Topology topo({{BlockType::Ring, 2, 100.0, 100.0},
                   {BlockType::Switch, 2, 50.0, 100.0}});
    HybridOptions opts;
    opts.mp = 2;
    opts.simLayers = 2;
    Workload wl = buildHybridTransformer(topo, gpt3(), opts);

    std::string path = testing::TempDir() + "/astra_trace_rt.json";
    saveWorkload(path, wl);
    Workload loaded = loadWorkload(path);

    Simulator sim_a(topo);
    Simulator sim_b(topo);
    Report ra = sim_a.run(wl);
    Report rb = sim_b.run(loaded);
    EXPECT_DOUBLE_EQ(ra.totalTime, rb.totalTime);
    EXPECT_EQ(ra.events, rb.events);
}

TEST(Simulator, RemoteMemoryWorkloadUsesConfiguredTier)
{
    Topology topo({{BlockType::Switch, 4, 100.0, 100.0},
                   {BlockType::Switch, 2, 25.0, 100.0}});
    SimulatorConfig cfg;
    RemoteMemoryConfig pool;
    pool.numNodes = 2;
    pool.gpusPerNode = 4;
    pool.numOutNodeSwitches = 2;
    pool.numRemoteMemoryGroups = 4;
    cfg.pooledMem = pool;
    Simulator sim(topo, cfg);
    MoEOptions opts;
    opts.simLayers = 2;
    opts.path = ParamPath::FusedInSwitch;
    Workload wl = buildMoEDisaggregated(topo, moe1T(), opts);
    Report report = sim.run(wl);
    EXPECT_GT(report.totalTime, 0.0);
    // Fused loads count as comm; unfused stores as remote memory.
    EXPECT_GT(report.average.exposedComm, 0.0);
}

TEST(Simulator, SerializedChunksWithSubGroupCollectives)
{
    // Regression: under serialized chunking, a fast rail member can
    // send chunk-c+1 messages to a member that has not entered chunk
    // c+1 yet; those must be buffered, not misapplied (this panicked
    // before the `started` flag existed).
    Topology topo = parseTopology("Switch(64,350)");
    SimulatorConfig cfg;
    cfg.sys.collectiveChunks = 4;
    cfg.sys.serializeChunks = true;
    Simulator sim(topo, cfg);
    HybridOptions opts;
    opts.mp = 8; // sub-dimension MP/DP groups inside the switch.
    opts.simLayers = 3;
    Workload wl = buildHybridTransformer(topo, gpt3(), opts);
    Report report = sim.run(wl);
    EXPECT_GT(report.totalTime, 0.0);
    EXPECT_GT(report.average.exposedComm, 0.0);
}

TEST(Simulator, RejectsDoubleRemoteTier)
{
    Topology topo({{BlockType::Ring, 2, 100.0, 100.0}});
    SimulatorConfig cfg;
    cfg.pooledMem = RemoteMemoryConfig{};
    cfg.zeroInfinityMem = ZeroInfinityConfig{};
    EXPECT_THROW(Simulator(topo, cfg), FatalError);
}

/** The FatalError message `fn` throws ("" if it returns). */
template <typename Fn>
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

TEST(Simulator, EventTimesPastTheQueueRangeAreUserErrors)
{
    // Both runs once aborted inside the event queue: its tick cast
    // overflowed and the timing wheel saw time go backwards.
    const std::string beyond = "beyond the event queue's range";

    // A per-hop latency of 1e300 ns (trace_runner's generated trace).
    Topology slow = parseTopology("R(4,100,1e300)_SW(2,25)");
    HybridOptions opts;
    opts.mp = slow.dim(0).size;
    opts.simLayers = 4;
    Workload hybrid = buildHybridTransformer(slow, gpt3(), opts);
    EXPECT_NE(errorOf([&] { Simulator(slow, {}).run(hybrid); })
                  .find(beyond),
              std::string::npos);

    // An ET compute node of 1e300 flops beside a short one.
    Workload huge = workloadFromText(R"({"schema": "astra-sim-et-v2",
      "npus": 2, "name": "huge", "graphs": [
        {"npu": 0, "nodes": [{"type": "compute", "id": 0,
                              "flops": 1e300}]},
        {"npu": 1, "nodes": [{"type": "compute", "id": 0,
                              "flops": 1}]}]})");
    Topology pair = parseTopology("Ring(2,100)");
    EXPECT_NE(errorOf([&] { Simulator(pair, {}).run(huge); }).find(beyond),
              std::string::npos);
}

} // namespace
} // namespace astra
