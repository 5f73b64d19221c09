/**
 * @file
 * Shape checks for the paper's case studies (§V), mostly at reduced
 * scale so they run in CI time. The full-size experiments are sweep
 * specs under examples/figures/ (docs/sweep.md "Paper figures");
 * Fig. 4 needs packet headers and a per-message overhead, which a spec
 * cannot set, so its full sweep is here.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "astra/simulator.h"
#include "collective/engine.h"
#include "collective/estimate.h"
#include "network/analytical.h"
#include "network/detailed/packet_network.h"
#include "topology/notation.h"
#include "workload/builders.h"

namespace astra {
namespace {

TimeNs
runAllReduce(const Topology &topo, Bytes bytes, SchedPolicy policy,
             bool serialize_chunks, int chunks = 8)
{
    EventQueue eq;
    AnalyticalNetwork net(eq, topo);
    CollectiveEngine engine(net);
    CollectiveRequest req =
        CollectiveRequest::overDims(CollectiveType::AllReduce, bytes);
    req.chunks = chunks;
    req.policy = policy;
    req.serializeChunks = serialize_chunks;
    return runCollective(engine, req).finish;
}

TEST(CaseStudyScheduling, OneDimTopologyGainsNothingFromThemis)
{
    // Fig. 9(a): W-1D shows no gain from smart scheduling. At the
    // paper's 1 GB size the collective is bandwidth-bound and the
    // single switch dimension serializes everything either way.
    Topology w1d = parseTopology("Switch(64,350)");
    TimeNs base = runAllReduce(w1d, 1e9, SchedPolicy::Baseline, true);
    TimeNs themis = runAllReduce(w1d, 1e9, SchedPolicy::Themis, false);
    EXPECT_NEAR(themis, base, base * 0.02);
}

TEST(CaseStudyScheduling, MultiDimTopologiesBenefitHeavily)
{
    // Fig. 9(a): W-2D / Conv-3D / Conv-4D heavily benefit from the
    // greedy collective scheduler.
    struct Config
    {
        const char *name;
        Topology topo;
    };
    std::vector<Config> systems;
    systems.push_back({"w2d-like", Topology({
        {BlockType::Switch, 8, 250.0, 500.0},
        {BlockType::Switch, 8, 250.0, 500.0}})});
    systems.push_back({"conv3d-like", Topology({
        {BlockType::Ring, 4, 200.0, 500.0},
        {BlockType::FullyConnected, 4, 100.0, 500.0},
        {BlockType::Switch, 4, 50.0, 500.0}})});
    for (const Config &cfg : systems) {
        TimeNs base =
            runAllReduce(cfg.topo, 64e6, SchedPolicy::Baseline, true);
        TimeNs themis =
            runAllReduce(cfg.topo, 64e6, SchedPolicy::Themis, false);
        EXPECT_LT(themis, base * 0.7) << cfg.name;
    }
}

TEST(CaseStudyScheduling, ThemisBringsConvNearEquivalentWafer)
{
    // Fig. 9(a): with Themis, a conventional multi-dim system matches
    // the wafer-scale system of equal aggregate BW/NPU for a single
    // All-Reduce.
    Topology conv({{BlockType::Ring, 2, 250.0, 500.0},
                   {BlockType::FullyConnected, 4, 200.0, 500.0},
                   {BlockType::Ring, 4, 100.0, 500.0},
                   {BlockType::Switch, 2, 50.0, 500.0}});
    Topology wafer = parseTopology("Switch(64,600)"); // equal 600 GB/s.
    ASSERT_EQ(conv.npus(), wafer.npus());
    TimeNs conv_themis =
        runAllReduce(conv, 256e6, SchedPolicy::Themis, false, 32);
    TimeNs wafer_time =
        runAllReduce(wafer, 256e6, SchedPolicy::Baseline, false, 32);
    // The paper's claim is equality of the normalized bars; our
    // greedy Themis approximation lands within ~50% of the wafer,
    // versus ~4x without it (see MultiDimTopologiesBenefitHeavily).
    EXPECT_LT(conv_themis, wafer_time * 1.5);
    EXPECT_GT(conv_themis, wafer_time * 0.65);
}

TEST(CaseStudyScaling, ScaleOutKeepsCollectiveTimeFlat)
{
    // Table IV rows 1-4: growing the NIC dimension leaves All-Reduce
    // time nearly identical.
    TimeNs t_prev = -1.0;
    for (int dim4 : {2, 4, 8}) {
        Topology topo({{BlockType::Ring, 2, 1000.0, 500.0},
                       {BlockType::FullyConnected, 4, 200.0, 500.0},
                       {BlockType::Ring, 4, 100.0, 500.0},
                       {BlockType::Switch, dim4, 50.0, 500.0}});
        TimeNs t =
            runAllReduce(topo, 128e6, SchedPolicy::Baseline, false, 16);
        if (t_prev > 0.0) {
            EXPECT_NEAR(t, t_prev, t_prev * 0.08);
        }
        t_prev = t;
    }
}

TEST(CaseStudyScaling, WaferScalingGainsStallWhileTheBottleneckBoundBounces)
{
    // Table IV rows 5-7: growing the on-wafer dimension cuts the time
    // until dim 1 itself becomes the bottleneck; past that the time
    // stops improving. It does not bounce back up as the paper's
    // 16_8_8_4 row does: the full-size examples/figures/table4.json
    // gives 1.00/1.62/2.06/2.19x against the paper's
    // 1.00/1.99/2.51/2.34x. Only the bottleneck bound bounces.
    auto wafer_topo = [](int dim1) {
        return Topology({{BlockType::Ring, dim1, 1000.0, 500.0},
                         {BlockType::FullyConnected, 8, 200.0, 500.0},
                         {BlockType::Ring, 8, 100.0, 500.0}});
    };
    TimeNs base = runAllReduce(wafer_topo(2), 512e6,
                               SchedPolicy::Baseline, false, 16);
    TimeNs w8 = runAllReduce(wafer_topo(8), 512e6,
                             SchedPolicy::Baseline, false, 16);
    TimeNs w16 = runAllReduce(wafer_topo(16), 512e6,
                              SchedPolicy::Baseline, false, 16);
    EXPECT_LT(w8, base * 0.55); // ~2.3x speedup first.
    // Once dim 1 dominates, the improvement stops: w16 is within
    // noise of w8 instead of another ~2x step.
    EXPECT_GT(w16, w8 * 0.85);

    // The bound that bounces: the bottleneck dimension's serialization
    // bound shifts onto dim 1 and starts growing with (1 - 1/k).
    auto bottleneck = [&](int dim1) {
        CollectiveRequest req = CollectiveRequest::overDims(
            CollectiveType::AllReduce, 512e6);
        req.chunks = 16;
        return estimateCollective(wafer_topo(dim1), req).bottleneck;
    };
    EXPECT_LT(bottleneck(8), bottleneck(2));
    EXPECT_GT(bottleneck(16), bottleneck(8) * 1.05);
    EXPECT_GT(bottleneck(32), bottleneck(16) * 1.02);
}

TEST(CaseStudyBackends, AnalyticalTracksPacketLevel)
{
    // Fig. 4's premise at reduced scale: the analytical backend stays
    // within a few percent of the packet-level reference for
    // bandwidth-bound All-Reduces on NVLink-like rings.
    for (int npus : {4, 8}) {
        Topology topo({{BlockType::Ring, npus, 150.0, 500.0}});
        EventQueue eq_a;
        AnalyticalNetwork net_a(eq_a, topo);
        CollectiveEngine eng_a(net_a);
        CollectiveRequest req = CollectiveRequest::overDims(
            CollectiveType::AllReduce, 64e6);
        req.chunks = 1;
        TimeNs analytical = runCollective(eng_a, req).finish;

        EventQueue eq_p;
        PacketNetwork net_p(eq_p, topo, 65536.0);
        CollectiveEngine eng_p(net_p);
        TimeNs packet = runCollective(eng_p, req).finish;

        EXPECT_NEAR(analytical, packet, packet * 0.05)
            << npus << " NPUs";
    }
}

TEST(CaseStudyBackends, Fig4SweepWithinFivePercentOfPacketReference)
{
    // Fig. 4 at full size: the paper validates against NCCL on 4 and
    // 16 V100s over a 150 GB/s NVLink ring, 64 MB - 1.5 GB, and
    // reports a 5% mean error. With no GPUs, the reference is the
    // packet backend with the real-system effects the closed form
    // leaves out: 64 KiB packets carrying 2 KiB of protocol headers
    // each, and a 2 us software launch cost per message.
    double error_sum = 0.0;
    int points = 0;
    for (int npus : {4, 16}) {
        Topology topo({{BlockType::Ring, npus, 150.0, 700.0}});
        for (Bytes size : {64e6, 96e6, 128e6, 192e6, 750e6, 1500e6}) {
            CollectiveRequest req = CollectiveRequest::overDims(
                CollectiveType::AllReduce, size);
            req.chunks = 4;
            EventQueue eq_a;
            AnalyticalNetwork net_a(eq_a, topo);
            CollectiveEngine eng_a(net_a);
            TimeNs analytical = runCollective(eng_a, req).finish;

            EventQueue eq_p;
            PacketNetwork net_p(eq_p, topo, 64.0 * kKiB, 2.0 * kKiB,
                                2.0 * kUs);
            CollectiveEngine eng_p(net_p);
            TimeNs reference = runCollective(eng_p, req).finish;

            double error = std::abs(analytical - reference) / reference;
            EXPECT_LE(error, 0.05) << npus << " NPUs, " << size << " B";
            error_sum += error;
            ++points;
        }
    }
    EXPECT_LE(error_sum / points, 0.05);
}

TEST(CaseStudyDisaggregated, FasterFabricLiftsFusedMoE)
{
    // §V-B: sweeping the pooled-fabric and remote-group bandwidths
    // accelerates the fused (in-switch) MoE training substantially.
    Topology topo({{BlockType::Switch, 4, 300.0, 500.0},
                   {BlockType::Switch, 4, 25.0, 500.0}});
    auto run_with = [&](GBps fabric, GBps group) {
        SimulatorConfig cfg;
        RemoteMemoryConfig pool;
        pool.numNodes = 4;
        pool.gpusPerNode = 4;
        pool.numOutNodeSwitches = 4;
        pool.numRemoteMemoryGroups = 16;
        pool.inNodeFabricBw = fabric;
        pool.gpuSideOutNodeBw = fabric;
        pool.remoteMemGroupBw = group;
        cfg.pooledMem = pool;
        Simulator sim(topo, cfg);
        MoEOptions opts;
        opts.simLayers = 3;
        opts.path = ParamPath::FusedInSwitch;
        // Scale the global batch down to the 16-NPU toy system so the
        // fabric-bound parameter path stays the dominant term.
        ModelDesc model = moe1T();
        model.tokensPerBatch = 1 << 14;
        return sim.run(buildMoEDisaggregated(topo, model, opts));
    };
    Report slow = run_with(256.0, 100.0);
    Report fast = run_with(1024.0, 500.0);
    EXPECT_LT(fast.totalTime, slow.totalTime * 0.7);
    // The gain comes out of exposed comm (the fused transfers).
    EXPECT_LT(fast.average.exposedComm, slow.average.exposedComm);
}

} // namespace
} // namespace astra
