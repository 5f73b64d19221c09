/** @file Unit tests for ET graph structures and validation. */
#include <gtest/gtest.h>

#include <climits>
#include <type_traits>

#include "common/logging.h"
#include "workload/builders.h"
#include "workload/et.h"

namespace astra {
namespace {

/** Expect `fn` to throw a FatalError whose message contains `what`. */
template <typename Fn>
void
expectRejects(Fn fn, const std::string &what)
{
    try {
        fn();
        FAIL() << "accepted a graph that should be rejected (" << what
               << ")";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << "message: " << e.what() << "\nexpected substring: "
            << what;
    }
}

Workload
tinyWorkload(int npus)
{
    Workload wl;
    wl.name = "tiny";
    for (NpuId n = 0; n < npus; ++n) {
        EtGraph g;
        g.npu = n;
        uint32_t a = g.add(EtNode::compute(1e6, 0.0));
        g.add(EtNode::compute(1e6, 0.0), {a});
        wl.graphs.push_back(std::move(g));
    }
    return wl;
}

/** Two compute nodes named by file id: `a_id`, and `b_id` whose
 *  parents are `b_deps`. */
EtGraph
idGraph(int a_id, int b_id, std::initializer_list<int> b_deps)
{
    IdGraphBuilder b;
    b.add(a_id, EtNode::compute(1e6, 0.0));
    b.add(b_id, EtNode::compute(1e6, 0.0));
    for (int d : b_deps)
        b.dep(d);
    return std::move(b).finish(0);
}

TEST(Et, ValidWorkloadPasses)
{
    Workload wl = tinyWorkload(4);
    EXPECT_NO_THROW(validateWorkload(wl, 4));
    EXPECT_EQ(wl.totalNodes(), 8u);
}

TEST(Et, NodesAreFlatRecords)
{
    EXPECT_TRUE(std::is_trivially_copyable_v<EtNode>);
    EXPECT_LE(sizeof(EtNode), 48u);
}

TEST(Et, GraphCountMustMatchNpus)
{
    Workload wl = tinyWorkload(4);
    EXPECT_THROW(validateWorkload(wl, 8), FatalError);
}

TEST(Et, GraphsMustBeInNpuOrder)
{
    Workload wl = tinyWorkload(2);
    std::swap(wl.graphs[0], wl.graphs[1]);
    EXPECT_THROW(validateWorkload(wl, 2), FatalError);
}

TEST(Et, DuplicateIdsRejected)
{
    expectRejects([] { idGraph(0, 0, {}); },
                  "NPU 0: duplicate node id 0");
    expectRejects([] { idGraph(7, 7, {}); },
                  "NPU 0: duplicate node id 7");
}

TEST(Et, NegativeIdsRejected)
{
    expectRejects([] { idGraph(0, -1, {}); }, "NPU 0: negative node id");
}

TEST(Et, MissingDependencyRejected)
{
    expectRejects([] { idGraph(0, 1, {99}); },
                  "NPU 0 node 1: missing dependency 99");
    expectRejects([] { idGraph(5, 9, {6}); },
                  "NPU 0 node 9: missing dependency 6");
    // A position past the graph, written directly.
    Workload wl = tinyWorkload(1);
    wl.graphs[0].deps.back() = 99;
    expectRejects([&] { validateWorkload(wl, 1); },
                  "NPU 0 node 1: missing dependency 99");
}

TEST(Et, SelfDependencyRejected)
{
    expectRejects([] { idGraph(0, 1, {1}); },
                  "NPU 0 node 1 depends on itself");
    Workload wl = tinyWorkload(1);
    wl.graphs[0].deps.back() = 1;
    expectRejects([&] { validateWorkload(wl, 1); },
                  "NPU 0 node 1 depends on itself");
}

TEST(Et, CycleRejected)
{
    // 0 -> 1 -> 0 through a forward reference.
    IdGraphBuilder b;
    b.add(0, EtNode::compute(1e6, 0.0));
    b.dep(1);
    b.add(1, EtNode::compute(1e6, 0.0));
    b.dep(0);
    Workload wl;
    wl.graphs.push_back(std::move(b).finish(0));
    expectRejects([&] { validateWorkload(wl, 1); },
                  "NPU 0: dependency cycle in execution trace");
}

TEST(Et, PeerRangeChecked)
{
    Workload wl = tinyWorkload(2);
    wl.graphs[0].add(EtNode::send(9, 0.0, 0));
    expectRejects([&] { validateWorkload(wl, 2); },
                  "NPU 0 node 2: peer 9 out of range");
}

TEST(Et, ForwardReferencesResolve)
{
    // Ids listed out of order; node 10 depends on node 30, listed
    // after it. The graph is acyclic, so validation accepts it.
    IdGraphBuilder b;
    b.add(20, EtNode::compute(1e6, 0.0));
    b.add(10, EtNode::compute(1e6, 0.0));
    b.dep(30);
    b.add(30, EtNode::compute(1e6, 0.0));
    b.dep(20);
    EtGraph g = std::move(b).finish(0);
    ASSERT_EQ(g.deps.size(), 2u);
    EXPECT_EQ(g.depsOf(1)[0], 2u);
    EXPECT_EQ(g.depsOf(2)[0], 0u);
    EXPECT_EQ(g.idOf(0), 20);
    EXPECT_EQ(g.idOf(1), 10);
    EXPECT_EQ(g.idOf(2), 30);
    Workload wl;
    wl.graphs.push_back(std::move(g));
    EXPECT_NO_THROW(validateWorkload(wl, 1));
}

TEST(Et, SparseAndLargeIdsResolve)
{
    EtGraph g = idGraph(3, INT_MAX, {3});
    EXPECT_EQ(g.depsOf(1)[0], 0u);
    EXPECT_EQ(g.idOf(0), 3);
    EXPECT_EQ(g.idOf(1), INT_MAX);
}

TEST(Et, PositionalIdsAreNotStored)
{
    EtGraph g = idGraph(0, 1, {0});
    EXPECT_TRUE(g.ids.empty());
    EXPECT_EQ(g.idOf(1), 1);
    EXPECT_EQ(g.depsOf(1)[0], 0u);
}

TEST(Et, NamesAndGroupsAreInterned)
{
    Workload wl;
    EXPECT_EQ(wl.internName(""), 0u);
    uint32_t a = wl.internName("fwd");
    EXPECT_EQ(wl.internName("bwd"), a + 1);
    EXPECT_EQ(wl.internName("fwd"), a);
    EXPECT_EQ(wl.nameOf(a), "fwd");

    std::vector<GroupDim> dp = {{0, 2, 1}, {1, 4, 1}};
    EXPECT_EQ(wl.internGroups({}), 0u);
    uint32_t id = wl.internGroups(dp);
    EXPECT_NE(id, 0u);
    EXPECT_EQ(wl.internGroups(std::vector<GroupDim>(dp)), id);
    ASSERT_EQ(wl.groupsOf(id).size(), 2u);
    EXPECT_EQ(wl.groupsOf(id)[1].size, 4);
    EXPECT_TRUE(wl.groupsOf(0).empty());
}

TEST(Et, PipelineFootprintPerNode)
{
    // pipeline_traced's shape: 64 stages, 256 micro-batches, 8
    // iterations (778,240 nodes).
    Topology topo({{BlockType::Ring, 64, 200.0, 300.0}});
    PipelineOptions opts;
    opts.microbatches = 256;
    opts.iterations = 8;
    Workload wl = buildPipelineParallel(topo, gpt3(), opts);
    ASSERT_EQ(wl.totalNodes(), 778240u);
    double per_node = double(wl.bytesInUse()) / double(wl.totalNodes());
    EXPECT_LE(per_node, 64.0);
    EXPECT_NO_THROW(validateWorkload(wl, 64));
}

TEST(Et, NodeTypeNamesRoundTrip)
{
    for (NodeType t : {NodeType::Compute, NodeType::Memory,
                       NodeType::CommColl, NodeType::CommSend,
                       NodeType::CommRecv}) {
        EXPECT_EQ(parseNodeType(nodeTypeName(t)), t);
    }
    EXPECT_THROW(parseNodeType("bogus"), FatalError);
}

} // namespace
} // namespace astra
