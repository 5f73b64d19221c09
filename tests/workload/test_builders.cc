/** @file Unit tests for the parallelization-strategy trace builders. */
#include <gtest/gtest.h>

#include <set>

#include "common/logging.h"
#include "topology/notation.h"
#include "workload/builders.h"

namespace astra {
namespace {

TEST(MapHybrid, WholeDimsOnConv4D)
{
    Topology topo = parseTopology("conv4d");
    ParallelMapping map = mapHybrid(topo, 16, 32);
    // MP takes Ring(2) and FC(8); DP takes Ring(8) and Switch(4).
    ASSERT_EQ(map.mpGroups.size(), 2u);
    EXPECT_EQ(map.mpGroups[0].dim, 0);
    EXPECT_EQ(map.mpGroups[0].size, 2);
    EXPECT_EQ(map.mpGroups[1].dim, 1);
    EXPECT_EQ(map.mpGroups[1].size, 8);
    ASSERT_EQ(map.dpGroups.size(), 2u);
    EXPECT_EQ(map.dpGroups[0].dim, 2);
    EXPECT_EQ(map.dpGroups[1].dim, 3);
}

TEST(MapHybrid, SplitsSingleWaferDim)
{
    Topology topo = parseTopology("w1d-350");
    ParallelMapping map = mapHybrid(topo, 16, 32);
    ASSERT_EQ(map.mpGroups.size(), 1u);
    EXPECT_EQ(map.mpGroups[0].size, 16);
    EXPECT_EQ(map.mpGroups[0].stride, 1);
    ASSERT_EQ(map.dpGroups.size(), 1u);
    EXPECT_EQ(map.dpGroups[0].size, 32);
    EXPECT_EQ(map.dpGroups[0].stride, 16);
}

TEST(MapHybrid, SplitsPartiallyOnW2D)
{
    Topology topo = parseTopology("w2d"); // 32 x 16.
    ParallelMapping map = mapHybrid(topo, 16, 32);
    // MP: inner 16 of dim 0; DP: outer 2 of dim 0 plus dim 1.
    ASSERT_EQ(map.mpGroups.size(), 1u);
    EXPECT_EQ(map.mpGroups[0].dim, 0);
    EXPECT_EQ(map.mpGroups[0].size, 16);
    ASSERT_EQ(map.dpGroups.size(), 2u);
    EXPECT_EQ(map.dpGroups[0].dim, 0);
    EXPECT_EQ(map.dpGroups[0].size, 2);
    EXPECT_EQ(map.dpGroups[0].stride, 16);
    EXPECT_EQ(map.dpGroups[1].dim, 1);
}

TEST(MapHybrid, PureDataParallel)
{
    Topology topo = parseTopology("conv4d");
    ParallelMapping map = mapHybrid(topo, 1, 512);
    EXPECT_TRUE(map.mpGroups.empty());
    EXPECT_EQ(map.dpGroups.size(), 4u);
}

TEST(MapHybrid, RejectsBadFactors)
{
    Topology topo = parseTopology("conv4d");
    EXPECT_THROW(mapHybrid(topo, 3, 171), FatalError);  // 3*171 != 512.
    EXPECT_THROW(mapHybrid(topo, 7, 512 / 7), FatalError);
    EXPECT_THROW(mapHybrid(topo, 0, 512), FatalError);
}

TEST(HybridBuilder, StructureAndSymmetry)
{
    Topology topo({{BlockType::Ring, 2, 100.0, 100.0},
                   {BlockType::Switch, 4, 50.0, 100.0}});
    HybridOptions opts;
    opts.mp = 2;
    opts.simLayers = 3;
    Workload wl = buildHybridTransformer(topo, gpt3(), opts);
    EXPECT_NO_THROW(validateWorkload(wl, 8));
    // SPMD: all graphs identical.
    for (size_t g = 1; g < wl.graphs.size(); ++g)
        EXPECT_EQ(wl.graphs[g].nodes.size(), wl.graphs[0].nodes.size());
    // Per layer: attention + MLP computes with one MP all-reduce each
    // in both directions (4 + 4) plus the wgrad all-reduce; plus the
    // optimizer node.
    EXPECT_EQ(wl.graphs[0].nodes.size(), 3u * 9u + 1u);
}

TEST(HybridBuilder, PureDpHasOnlyWgradCollectives)
{
    Topology topo({{BlockType::Ring, 4, 100.0, 100.0}});
    HybridOptions opts;
    opts.mp = 1;
    opts.simLayers = 2;
    Workload wl = buildHybridTransformer(topo, gpt3(), opts);
    int colls = 0;
    for (const EtNode &n : wl.graphs[0].nodes)
        if (n.type == NodeType::CommColl) {
            ++colls;
            EXPECT_EQ(n.coll, CollectiveType::AllReduce);
            EXPECT_NE(wl.nameOf(n.name).find("wgrad"), std::string::npos);
        }
    EXPECT_EQ(colls, 2);
}

TEST(HybridBuilder, WgradOverlapsBackwardChain)
{
    // Weight-gradient all-reduces depend only on their layer's bwd
    // compute, so the next bwd layer can start in parallel.
    Topology topo({{BlockType::Ring, 4, 100.0, 100.0}});
    HybridOptions opts;
    opts.mp = 1;
    opts.simLayers = 4;
    Workload wl = buildHybridTransformer(topo, gpt3(), opts);
    const EtGraph &g = wl.graphs[0];
    for (size_t i = 0; i < g.nodes.size(); ++i) {
        if (wl.nameOf(g.nodes[i].name).find("wgrad") == std::string::npos)
            continue;
        ASSERT_EQ(g.depsOf(i).size(), 1u);
        ASSERT_LT(g.depsOf(i)[0], g.nodes.size());
        const EtNode *dep = &g.nodes[g.depsOf(i)[0]];
        EXPECT_EQ(dep->type, NodeType::Compute);
        EXPECT_NE(wl.nameOf(dep->name).find("bwd"), std::string::npos);
    }
}

TEST(HybridBuilder, CommKeysSharedAcrossNpusUniqueWithin)
{
    Topology topo({{BlockType::Ring, 2, 100.0, 100.0},
                   {BlockType::Switch, 2, 50.0, 100.0}});
    HybridOptions opts;
    opts.mp = 2;
    opts.simLayers = 2;
    Workload wl = buildHybridTransformer(topo, gpt3(), opts);
    std::set<uint64_t> keys;
    for (size_t i = 0; i < wl.graphs[0].nodes.size(); ++i) {
        const EtNode &a = wl.graphs[0].nodes[i];
        if (a.type != NodeType::CommColl)
            continue;
        EXPECT_TRUE(keys.insert(a.key).second)
            << "duplicate key within a graph";
        for (size_t g = 1; g < wl.graphs.size(); ++g)
            EXPECT_EQ(wl.graphs[g].nodes[i].key, a.key);
    }
}

TEST(DlrmBuilder, AllToAllAndWgrad)
{
    Topology topo({{BlockType::Switch, 8, 100.0, 100.0}});
    Workload wl = buildDlrm(topo, dlrm(), {});
    EXPECT_NO_THROW(validateWorkload(wl, 8));
    int a2a = 0, ar = 0;
    for (const EtNode &n : wl.graphs[0].nodes) {
        if (n.type != NodeType::CommColl)
            continue;
        if (n.coll == CollectiveType::AllToAll)
            ++a2a;
        if (n.coll == CollectiveType::AllReduce)
            ++ar;
    }
    EXPECT_EQ(a2a, 2); // forward + backward embedding exchange.
    EXPECT_EQ(ar, 1);  // MLP gradient sync.
}

TEST(SingleCollectiveBuilder, OneNodePerNpu)
{
    Topology topo = parseTopology("conv4d");
    Workload wl = buildSingleCollective(
        topo, CollectiveType::AllReduce, 1e9);
    EXPECT_NO_THROW(validateWorkload(wl, 512));
    EXPECT_EQ(wl.totalNodes(), 512u);
    EXPECT_EQ(wl.graphs[0].nodes[0].coll, CollectiveType::AllReduce);
    EXPECT_DOUBLE_EQ(wl.graphs[0].nodes[0].bytes, 1e9);
}

TEST(PipelineBuilder, StagesDifferPerNpu)
{
    Topology topo({{BlockType::Ring, 4, 100.0, 100.0}});
    PipelineOptions opts;
    opts.microbatches = 3;
    Workload wl = buildPipelineParallel(topo, gpt3(), opts);
    EXPECT_NO_THROW(validateWorkload(wl, 4));
    // First stage: no fwd recvs; last stage: no fwd sends.
    for (const EtNode &n : wl.graphs[0].nodes) {
        if (n.type == NodeType::CommRecv) {
            EXPECT_EQ(n.peer, 1); // only bwd recvs from stage 1.
        }
    }
    int sends_last = 0;
    for (const EtNode &n : wl.graphs[3].nodes)
        if (n.type == NodeType::CommSend)
            ++sends_last;
    EXPECT_EQ(sends_last, 3); // only bwd sends.
}

TEST(PipelineBuilder, SendRecvTagsPairUp)
{
    Topology topo({{BlockType::Ring, 4, 100.0, 100.0}});
    PipelineOptions opts;
    opts.microbatches = 2;
    Workload wl = buildPipelineParallel(topo, gpt3(), opts);
    // Every send on stage s has a matching recv on its peer.
    std::multiset<uint64_t> sent, received;
    for (const EtGraph &g : wl.graphs)
        for (const EtNode &n : g.nodes) {
            if (n.type == NodeType::CommSend)
                sent.insert((uint64_t(g.npu) << 32) ^ n.key);
            if (n.type == NodeType::CommRecv)
                received.insert((uint64_t(n.peer) << 32) ^ n.key);
        }
    EXPECT_EQ(sent, received);
}

TEST(MoeBuilder, NetworkPathHasCollectives)
{
    Topology topo({{BlockType::Switch, 4, 100.0, 100.0},
                   {BlockType::Switch, 2, 25.0, 100.0}});
    MoEOptions opts;
    opts.path = ParamPath::NetworkCollectives;
    opts.simLayers = 2;
    Workload wl = buildMoEDisaggregated(topo, moe1T(), opts);
    EXPECT_NO_THROW(validateWorkload(wl, 8));
    int ag = 0, rs = 0, fused_mem = 0;
    for (const EtNode &n : wl.graphs[0].nodes) {
        if (n.type == NodeType::CommColl &&
            n.coll == CollectiveType::AllGather)
            ++ag;
        if (n.type == NodeType::CommColl &&
            n.coll == CollectiveType::ReduceScatter)
            ++rs;
        if (n.type == NodeType::Memory && n.fused)
            ++fused_mem;
    }
    EXPECT_EQ(ag, 2);
    EXPECT_EQ(rs, 2);
    EXPECT_EQ(fused_mem, 0);
}

TEST(MoeBuilder, FusedPathMovesCollectivesIntoFabric)
{
    Topology topo({{BlockType::Switch, 4, 100.0, 100.0},
                   {BlockType::Switch, 2, 25.0, 100.0}});
    MoEOptions opts;
    opts.path = ParamPath::FusedInSwitch;
    opts.simLayers = 2;
    Workload wl = buildMoEDisaggregated(topo, moe1T(), opts);
    int ag_or_rs = 0, fused_mem = 0;
    for (const EtNode &n : wl.graphs[0].nodes) {
        if (n.type == NodeType::CommColl &&
            (n.coll == CollectiveType::AllGather ||
             n.coll == CollectiveType::ReduceScatter))
            ++ag_or_rs;
        if (n.type == NodeType::Memory && n.fused)
            ++fused_mem;
    }
    EXPECT_EQ(ag_or_rs, 0);
    EXPECT_EQ(fused_mem, 4); // gather-load + scatter-store per layer.
}

TEST(FreshCommKey, MonotonicallyUnique)
{
    uint64_t a = freshCommKey();
    uint64_t b = freshCommKey();
    EXPECT_NE(a, b);
}

} // namespace
} // namespace astra
