/**
 * @file The closures scheduled once per message or per node fit
 * InlineEvent's inline budget. A capture that outgrows the budget
 * still works, silently, from the callback pool; these tests make it
 * fail instead.
 *
 *  - Collective delivery: every onDelivered the engine hands the
 *    backend is checked with isInline().
 *  - Packet per-hop forward and flow completion: while a message is in
 *    flight, every pending event is one of the backend's own closures,
 *    so the pool's outstanding count must not move.
 *  - Workload node completion: Sys wraps the node's closure in its own
 *    completion (which owns another callback and so is pooled); a
 *    pending compute node must hold exactly that one pooled block.
 */
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "collective/engine.h"
#include "event/event_queue.h"
#include "memory/memory_model.h"
#include "network/analytical.h"
#include "network/detailed/packet_network.h"
#include "network/flow/flow_network.h"
#include "system/sys.h"
#include "workload/engine.h"

namespace astra {
namespace {

/** Analytical backend that checks each delivery closure it is handed. */
class RecordingNetwork : public AnalyticalNetwork
{
  public:
    using AnalyticalNetwork::AnalyticalNetwork;

    void
    simSend(NpuId src, NpuId dst, Bytes bytes, int dim, uint64_t tag,
            SendHandlers handlers) override
    {
        ++sends;
        if (handlers.onDelivered.isInline())
            ++inlineDeliveries;
        AnalyticalNetwork::simSend(src, dst, bytes, dim, tag,
                                   std::move(handlers));
    }

    int sends = 0;
    int inlineDeliveries = 0;
};

TEST(InlineBudget, CollectiveDeliveryIsInline)
{
    // Ring, fully-connected (direct) and switch (halving-doubling)
    // phases; all-to-all runs its switch phase as Direct.
    Topology topo({{BlockType::Ring, 4, 100.0, 500.0},
                   {BlockType::FullyConnected, 4, 100.0, 500.0},
                   {BlockType::Switch, 4, 100.0, 500.0}});
    for (CollectiveType type :
         {CollectiveType::AllReduce, CollectiveType::AllToAll}) {
        EventQueue eq;
        RecordingNetwork net(eq, topo);
        CollectiveEngine engine(net);
        CollectiveRequest req = CollectiveRequest::overDims(type, 1e6);
        req.chunks = 2;
        runCollective(engine, req);
        EXPECT_GT(net.sends, 0);
        EXPECT_EQ(net.inlineDeliveries, net.sends)
            << collectiveName(type);
    }
}

/** Step `eq` to the end; every step, the pool must hold `pooled` more
 *  blocks than `base` at most, and exactly that many at some step. */
void
expectPoolBound(EventQueue &eq, size_t base, size_t pooled)
{
    bool reached = pooled == 0;
    uint64_t steps = 0;
    do {
        size_t now = CallbackPool::outstanding();
        ASSERT_LE(now, base + pooled) << "after " << steps << " events";
        reached = reached || now == base + pooled;
        ++steps;
    } while (eq.step());
    EXPECT_TRUE(reached);
    EXPECT_GT(steps, 4u);
}

TEST(InlineBudget, PacketForwardIsInline)
{
    // Four packets over four ring hops: every pending event is a
    // per-hop forward.
    Topology topo({{BlockType::Ring, 8, 100.0, 500.0}});
    EventQueue eq;
    PacketNetwork net(eq, topo, 4096.0);
    const size_t base = CallbackPool::outstanding();
    net.simSend(0, 4, 4 * 4096.0, kAutoRoute, kNoTag, SendHandlers{});
    EXPECT_GE(eq.pending(), 4u);
    expectPoolBound(eq, base, 0);
    EXPECT_EQ(net.stats().messages, 1u);
}

TEST(InlineBudget, FlowCompletionIsInline)
{
    // Three flows, two of them sharing a link: the deferred solve and
    // every (re-rated) completion are the backend's own closures.
    Topology topo({{BlockType::Ring, 4, 100.0, 500.0}});
    EventQueue eq;
    FlowNetwork net(eq, topo);
    const size_t base = CallbackPool::outstanding();
    net.simSend(0, 1, 1e6, 0, kNoTag, SendHandlers{});
    net.simSend(0, 1, 2e6, 0, kNoTag, SendHandlers{});
    net.simSend(1, 2, 1e6, 0, kNoTag, SendHandlers{});
    expectPoolBound(eq, base, 0);
    EXPECT_EQ(net.stats().messages, 3u);
}

TEST(InlineBudget, NodeCompletionIsInline)
{
    // One NPU running a chain of compute nodes: one node is pending at
    // a time, and its only pooled block is Sys's completion wrapper.
    Topology topo({{BlockType::Ring, 2, 100.0, 500.0}});
    EventQueue eq;
    AnalyticalNetwork net(eq, topo);
    CollectiveEngine coll(net);
    MemoryModel mem(LocalMemoryConfig{1000.0, 0.0});
    SysConfig cfg;
    cfg.compute.peakTflops = 100.0;
    std::vector<std::unique_ptr<Sys>> sys;
    for (NpuId n = 0; n < topo.npus(); ++n)
        sys.push_back(std::make_unique<Sys>(n, cfg, coll, mem));
    Workload wl;
    wl.name = "chain";
    for (NpuId n = 0; n < topo.npus(); ++n) {
        EtGraph g;
        g.npu = n;
        if (n == 0) {
            for (int i = 0; i < 4; ++i) {
                EtNode node = EtNode::compute(1e9, 0.0);
                if (i > 0)
                    g.add(node, {uint32_t(i - 1)});
                else
                    g.add(node);
            }
        }
        wl.graphs.push_back(std::move(g));
    }
    validateWorkload(wl, topo.npus());
    ExecutionEngine engine(sys, wl);
    const size_t base = CallbackPool::outstanding();
    engine.start();
    expectPoolBound(eq, base, 1);
    EXPECT_TRUE(engine.finished());
    EXPECT_EQ(CallbackPool::outstanding(), base);
}

} // namespace
} // namespace astra
