/** @file Unit tests for ET JSON (de)serialization. */
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "workload/builders.h"
#include "workload/et_json.h"

namespace astra {
namespace {

Workload
richWorkload()
{
    Workload wl;
    wl.name = "rich";
    for (NpuId n = 0; n < 2; ++n) {
        EtGraph g;
        g.npu = n;

        EtNode c = EtNode::compute(1.5e9, 3e6);
        c.name = wl.internName("fwd");
        uint32_t c_pos = g.add(c);

        uint32_t m_pos = g.add(
            EtNode::memory(MemLocation::Remote, MemOp::Store, 2e6, true),
            {c_pos});

        std::vector<GroupDim> groups = {GroupDim{0, 2, 1}};
        uint32_t coll_pos =
            g.add(EtNode::collective(CollectiveType::ReduceScatter, 8e6,
                                     991, wl.internGroups(groups)),
                  {c_pos, m_pos});

        g.add(EtNode::send(1 - n, 5e5, 17), {coll_pos});
        g.add(EtNode::recv(1 - n, 17), {coll_pos});
        wl.graphs.push_back(std::move(g));
    }
    return wl;
}

/** Expect `fn` to throw a FatalError whose message contains `what`. */
template <typename Fn>
void
expectRejects(Fn fn, const std::string &what)
{
    try {
        fn();
        FAIL() << "accepted a document that should be rejected (" << what
               << ")";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << "message: " << e.what() << "\nexpected substring: "
            << what;
    }
}

/** A one-graph document whose only node is `node`, plus a compute
 *  node 0 it may depend on. */
std::string
oneNodeDoc(const std::string &node)
{
    return R"({"schema": "astra-sim-et-v2", "npus": 1,
        "graphs": [{"npu": 0, "nodes": [
          {"id": 0, "type": "compute"}, )" +
           node + "]}]}";
}

TEST(EtJson, RoundTripPreservesEverything)
{
    Workload wl = richWorkload();
    Workload back = workloadFromText(workloadToText(wl));
    ASSERT_EQ(back.graphs.size(), wl.graphs.size());
    EXPECT_EQ(back.name, wl.name);
    for (size_t g = 0; g < wl.graphs.size(); ++g) {
        const EtGraph &ga = wl.graphs[g];
        const EtGraph &gb = back.graphs[g];
        ASSERT_EQ(gb.nodes.size(), ga.nodes.size());
        for (size_t i = 0; i < ga.nodes.size(); ++i) {
            const EtNode &a = ga.nodes[i];
            const EtNode &b = gb.nodes[i];
            EXPECT_EQ(ga.idOf(i), gb.idOf(i));
            EXPECT_EQ(a.type, b.type);
            EXPECT_EQ(wl.nameOf(a.name), back.nameOf(b.name));
            EXPECT_TRUE(std::ranges::equal(ga.depsOf(i), gb.depsOf(i)));
            EXPECT_DOUBLE_EQ(a.flops, b.flops);
            EXPECT_DOUBLE_EQ(a.bytes, b.bytes);
            EXPECT_EQ(a.location, b.location);
            EXPECT_EQ(a.memOp, b.memOp);
            EXPECT_EQ(a.fused, b.fused);
            EXPECT_EQ(a.coll, b.coll);
            EXPECT_EQ(a.key, b.key);
            std::span<const GroupDim> la = wl.groupsOf(a.groups);
            std::span<const GroupDim> lb = back.groupsOf(b.groups);
            ASSERT_EQ(la.size(), lb.size());
            for (size_t k = 0; k < la.size(); ++k) {
                EXPECT_EQ(la[k].dim, lb[k].dim);
                EXPECT_EQ(la[k].size, lb[k].size);
                EXPECT_EQ(la[k].stride, lb[k].stride);
            }
            EXPECT_EQ(a.peer, b.peer);
        }
    }
}

TEST(EtJson, FileRoundTrip)
{
    std::string path = testing::TempDir() + "/astra_et_test.json";
    Workload wl = richWorkload();
    saveWorkload(path, wl);
    Workload back = loadWorkload(path);
    EXPECT_EQ(workloadToText(back), workloadToText(wl));
}

TEST(EtJson, BuilderWorkloadsRoundTrip)
{
    Topology topo({{BlockType::Ring, 2, 100.0, 100.0},
                   {BlockType::Switch, 2, 50.0, 100.0}});
    HybridOptions opts;
    opts.mp = 2;
    Workload wl =
        buildHybridTransformer(topo, gpt3(), opts);
    Workload back = workloadFromText(workloadToText(wl));
    EXPECT_EQ(workloadToText(back), workloadToText(wl));
    EXPECT_NO_THROW(validateWorkload(back, topo.npus()));
}

TEST(EtJson, LoadedWorkloadIsAsLargeAsBuilt)
{
    Topology topo({{BlockType::Ring, 4, 100.0, 100.0}});
    PipelineOptions opts;
    opts.microbatches = 8;
    Workload wl = buildPipelineParallel(topo, gpt3(), opts);
    std::string path = testing::TempDir() + "/astra_et_size.json";
    saveWorkload(path, wl);
    EXPECT_EQ(loadWorkload(path).bytesInUse(), wl.bytesInUse());
}

TEST(EtJson, KeysLoadInAnyOrder)
{
    // The writer sorts the keys; a file listing the header and each
    // graph's npu first is the same workload.
    std::string sorted = R"({"graphs": [{"nodes": [
        {"flops": 0, "id": 0, "tensor_bytes": 0, "type": "compute"},
        {"deps": [0], "id": 1, "peer": 0, "tag": 0, "type": "comm_recv"}],
        "npu": 1}, {"nodes": [], "npu": 0}],
      "name": "x", "npus": 2, "schema": "astra-sim-et-v2"})";
    std::string reordered = R"({"schema": "astra-sim-et-v2", "npus": 2,
      "name": "x", "graphs": [{"npu": 1, "nodes": [
        {"type": "compute", "id": 0},
        {"type": "comm_recv", "peer": 0, "id": 1, "deps": [0]}]},
        {"npu": 0, "nodes": []}]})";
    // The type named last, keys the type ignores ("peer" on a compute
    // node), unknown keys with nested values, and duplicated keys,
    // where the last one wins.
    std::string quirky = R"({"npus": 2, "schema": "astra-sim-et-v2",
      "graphs": [{"npu": 1, "nodes": [
        {"id": 0, "peer": 3, "extra": {"a": [1, {"b": null}]}, "flops": 7,
         "flops": 0, "type": "comm_send", "type": "compute"},
        {"deps": [5], "peer": 0, "tag": 4, "id": 1, "tag": 0,
         "more": [[], {}], "deps": [0], "type": "comm_recv"}]},
        {"nodes": [], "npu": 0}], "name": "y", "name": "x"})";
    std::string text = workloadToText(workloadFromText(sorted));
    EXPECT_EQ(workloadToText(workloadFromText(reordered)), text);
    EXPECT_EQ(workloadToText(workloadFromText(quirky)), text);
    EXPECT_EQ(text, json::parse(sorted).dump(2) + "\n");
}

TEST(EtJson, DuplicateStreamedKeysRejected)
{
    expectRejects([] { workloadFromText(R"({"graphs": [], "graphs": []})"); },
                  "duplicate key 'graphs'");
    expectRejects([] { workloadFromText(R"({"graphs": [
                           {"nodes": [], "nodes": [], "npu": 0}]})"); },
                  "duplicate key 'nodes'");
}

TEST(EtJson, RejectsWrongSchema)
{
    EXPECT_THROW(workloadFromText(R"({"schema":"pytorch-et"})"),
                 FatalError);
    EXPECT_THROW(workloadFromText(R"({"schema":"astra-sim-et-v2","npus":2,
                                      "graphs":[]})"),
                 FatalError);
}

TEST(EtJson, SparseOutOfOrderIdsRoundTripByteForByte)
{
    // Sparse ids up to INT_MAX, listed out of order, with a forward
    // reference: the loader resolves them to positions, and the writer
    // emits the original ids again.
    json::Value doc = json::parse(R"({"schema": "astra-sim-et-v2",
      "name": "sparse", "npus": 1, "graphs": [{"npu": 0, "nodes": [
        {"id": 2147483647, "type": "compute", "flops": 1,
         "tensor_bytes": 8, "deps": [40]},
        {"id": 7, "type": "compute", "flops": 2, "tensor_bytes": 8},
        {"id": 40, "type": "compute", "flops": 3, "tensor_bytes": 8,
         "deps": [7]}]}]})");
    std::string path = testing::TempDir() + "/astra_et_sparse.json";
    std::string again = testing::TempDir() + "/astra_et_sparse2.json";
    OutputFile::write(path, "execution trace", doc.dump(2) + "\n");
    Workload wl = loadWorkload(path);
    const EtGraph &g = wl.graphs[0];
    EXPECT_EQ(g.depsOf(0)[0], 2u);
    EXPECT_EQ(g.depsOf(2)[0], 1u);
    EXPECT_EQ(g.idOf(0), INT_MAX);
    EXPECT_NO_THROW(validateWorkload(wl, 1));
    saveWorkload(again, wl);
    auto slurp = [](const std::string &p) {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    EXPECT_EQ(slurp(again), slurp(path));
}

TEST(EtJson, DuplicateAndMissingIdsRejected)
{
    expectRejects([] { workloadFromText(oneNodeDoc(
                           R"({"id": 0, "type": "compute"})")); },
                  "NPU 0: duplicate node id 0");
    expectRejects([] { workloadFromText(oneNodeDoc(
                           R"({"id": 5, "type": "compute",
                               "deps": [3]})")); },
                  "NPU 0 node 5: missing dependency 3");
}

TEST(EtJson, OutOfRangeIdRejected)
{
    expectRejects([] { workloadFromText(oneNodeDoc(
                           R"({"id": 4294967296, "type": "compute"})")); },
                  "graphs[0].nodes[1].id: expected an integer");
    expectRejects([] { workloadFromText(oneNodeDoc(
                           R"({"id": 1.5, "type": "compute"})")); },
                  "graphs[0].nodes[1].id: expected an integer");
}

TEST(EtJson, OutOfRangeDependencyRejected)
{
    // 4294967296 used to wrap to id 0 and load without complaint.
    expectRejects([] { workloadFromText(oneNodeDoc(
                           R"({"id": 1, "type": "compute",
                               "deps": [4294967296]})")); },
                  "graphs[0].nodes[1].deps[0]: expected an integer");
}

TEST(EtJson, OutOfRangePeerRejected)
{
    expectRejects([] { workloadFromText(oneNodeDoc(
                           R"({"id": 1, "type": "comm_recv",
                               "peer": 4294967297})")); },
                  "graphs[0].nodes[1].peer: expected an integer");
}

TEST(EtJson, OutOfRangeNpuRejected)
{
    expectRejects([] { workloadFromText(
                           R"({"schema": "astra-sim-et-v2", "npus": 1,
                               "graphs": [{"npu": 4294967296,
                                           "nodes": []}]})"); },
                  "graphs[0].npu: expected an integer");
}

TEST(EtJson, OutOfRangeGroupFieldsRejected)
{
    for (const char *field : {"dim", "size", "stride"}) {
        std::string node = R"({"id": 1, "type": "comm_coll",
            "coll": "all_reduce", "groups": [{"dim": 0, ")" +
                           std::string(field) + R"(": 1e10}]})";
        expectRejects([&] { workloadFromText(oneNodeDoc(node)); },
                      "graphs[0].nodes[1].groups[0]." +
                          std::string(field) + ": expected an integer");
    }
}

TEST(EtJson, OutOfRangeKeyRejected)
{
    for (const char *key : {"-1", "9007199254740992", "0.5"})
        expectRejects([&] { workloadFromText(oneNodeDoc(
                                R"({"id": 1, "type": "comm_coll",
                                    "coll": "all_reduce", "key": )" +
                                std::string(key) + "}")); },
                      "graphs[0].nodes[1].key: expected an integer in "
                      "[0, 9007199254740991]");
}

TEST(EtJson, OutOfRangeTagRejected)
{
    // A negative tag used to be undefined behaviour: the send and the
    // recv could end up with different tags and deadlock.
    for (const char *type : {"comm_send", "comm_recv"})
        expectRejects([&] { workloadFromText(oneNodeDoc(
                                R"({"id": 1, "type": ")" +
                                std::string(type) +
                                R"(", "peer": 0, "tag": -1})")); },
                      "graphs[0].nodes[1].tag: expected an integer in "
                      "[0, 9007199254740991]");
}

} // namespace
} // namespace astra
