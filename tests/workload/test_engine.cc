/** @file Unit tests for the graph-based execution engine (§IV-A). */
#include <gtest/gtest.h>

#include <memory>

#include "common/logging.h"
#include "event/event_queue.h"
#include "network/analytical.h"
#include "workload/engine.h"

namespace astra {
namespace {

struct Fixture
{
    explicit Fixture(int ring = 4)
        : topo({{BlockType::Ring, ring, 100.0, 100.0}}), net(eq, topo),
          engine(net), mem(LocalMemoryConfig{1000.0, 0.0})
    {
        SysConfig cfg;
        cfg.compute.peakTflops = 100.0; // 1e5 FLOP/ns.
        cfg.collectiveChunks = 1;
        for (NpuId n = 0; n < topo.npus(); ++n)
            sys.push_back(std::make_unique<Sys>(n, cfg, engine, mem));
    }

    EventQueue eq;
    Topology topo;
    AnalyticalNetwork net;
    CollectiveEngine engine;
    MemoryModel mem;
    std::vector<std::unique_ptr<Sys>> sys;
};


TEST(ExecutionEngine, RespectsDependencyChains)
{
    Fixture f;
    Workload wl;
    wl.name = "chain";
    for (NpuId n = 0; n < 4; ++n) {
        EtGraph g;
        g.npu = n;
        g.add(EtNode::compute(1e9, 0.0));
        g.add(EtNode::compute(1e9, 0.0), {0});
        g.add(EtNode::compute(1e9, 0.0), {1});
        wl.graphs.push_back(std::move(g));
    }
    validateWorkload(wl, 4);
    ExecutionEngine engine(f.sys, wl);
    TimeNs finish = engine.run();
    EXPECT_DOUBLE_EQ(finish, 3e4); // three serialized 10 us ops.
    EXPECT_TRUE(engine.finished());
    EXPECT_EQ(engine.completedNodes(), 12u);
}

TEST(ExecutionEngine, IndependentNodesOverlapAcrossResources)
{
    // A compute and a memory node with no dependency overlap.
    Fixture f;
    Workload wl;
    wl.name = "overlap";
    for (NpuId n = 0; n < 4; ++n) {
        EtGraph g;
        g.npu = n;
        g.add(EtNode::compute(1e9, 0.0));
        // 1 us at 1000 GB/s.
        g.add(EtNode::memory(MemLocation::Local, MemOp::Load, 1e6));
        wl.graphs.push_back(std::move(g));
    }
    validateWorkload(wl, 4);
    ExecutionEngine engine(f.sys, wl);
    TimeNs finish = engine.run();
    EXPECT_DOUBLE_EQ(finish, 1e4); // memory hidden behind compute.
}

TEST(ExecutionEngine, CollectiveNodesSynchronizeGroups)
{
    Fixture f;
    Workload wl;
    wl.name = "coll";
    uint64_t key = 4242;
    for (NpuId n = 0; n < 4; ++n) {
        EtGraph g;
        g.npu = n;
        // NPU 0 computes longer before joining; others wait in the
        // rendezvous.
        g.add(EtNode::compute(n == 0 ? 2e9 : 1e9, 0.0));
        g.add(EtNode::collective(CollectiveType::AllReduce, 4e6, key),
              {0});
        wl.graphs.push_back(std::move(g));
    }
    validateWorkload(wl, 4);
    ExecutionEngine engine(f.sys, wl);
    TimeNs finish = engine.run();
    // Collective starts when the slowest NPU (0) arrives at 20 us.
    TimeNs coll_time = 2 * 3 * (1e6 / 100.0 + 100.0);
    EXPECT_NEAR(finish, 2e4 + coll_time, 1e-6);
}

TEST(ExecutionEngine, PipelineSendRecvAcrossNpus)
{
    Fixture f(2);
    Workload wl;
    wl.name = "p2p";
    {
        EtGraph g0;
        g0.npu = 0;
        g0.add(EtNode::compute(1e9, 0.0));
        g0.add(EtNode::send(1, 1e6, 5), {0});
        wl.graphs.push_back(std::move(g0));
    }
    {
        EtGraph g1;
        g1.npu = 1;
        g1.add(EtNode::recv(0, 5));
        g1.add(EtNode::compute(1e9, 0.0), {0});
        wl.graphs.push_back(std::move(g1));
    }
    validateWorkload(wl, 2);
    ExecutionEngine engine(f.sys, wl);
    TimeNs finish = engine.run();
    // 10us compute + 10us injection + 100ns hop + 10us compute.
    EXPECT_DOUBLE_EQ(finish, 1e4 + 1e4 + 100.0 + 1e4);
}

TEST(ExecutionEngine, DeadlockIsAUserError)
{
    Fixture f(2);
    Workload wl;
    wl.name = "deadlock";
    for (NpuId n = 0; n < 2; ++n) {
        EtGraph g;
        g.npu = n;
        g.add(EtNode::recv(1 - n, 9)); // both receive; nobody sends.
        wl.graphs.push_back(std::move(g));
    }
    validateWorkload(wl, 2);
    ExecutionEngine engine(f.sys, wl);
    EXPECT_THROW(engine.run(), FatalError);
}

TEST(ExecutionEngine, EmptyGraphsFinishImmediately)
{
    Fixture f;
    Workload wl;
    wl.name = "empty";
    for (NpuId n = 0; n < 4; ++n) {
        EtGraph g;
        g.npu = n;
        wl.graphs.push_back(std::move(g));
    }
    validateWorkload(wl, 4);
    ExecutionEngine engine(f.sys, wl);
    EXPECT_DOUBLE_EQ(engine.run(), 0.0);
    EXPECT_TRUE(engine.finished());
}

} // namespace
} // namespace astra
