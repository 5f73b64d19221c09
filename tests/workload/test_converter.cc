/** @file Unit tests for the PyTorch-style trace converter (§IV-A). */
#include <gtest/gtest.h>

#include "common/logging.h"
#include "workload/converter.h"

namespace astra {
namespace {

json::Value
rankDoc(int rank)
{
    std::string doc = R"({
      "schema": "pytorch-et",
      "rank": )" + std::to_string(rank) + R"(,
      "nodes": [
        {"id": 1, "name": "aten::mm", "op": "compute", "inputs": [],
         "attrs": {"flops": 2e9, "bytes": 4e6}},
        {"id": 2, "name": "nccl:all_reduce", "op": "comm",
         "inputs": [1],
         "attrs": {"comm_type": "all_reduce", "bytes": 1e8, "pg": 3}},
        {"id": 3, "name": "nccl:all_to_all", "op": "comm",
         "inputs": [2],
         "attrs": {"comm_type": "all_to_all", "bytes": 5e7, "pg": 3}},
        {"id": 4, "name": "param_load", "op": "memory", "inputs": [1],
         "attrs": {"bytes": 2e6, "location": "remote", "rw": "load"}}
      ]
    })";
    return json::parse(doc);
}

TEST(Converter, ConvertsAllNodeKinds)
{
    Workload wl = convertPyTorchTraces({rankDoc(0), rankDoc(1)});
    ASSERT_EQ(wl.graphs.size(), 2u);
    const auto &nodes = wl.graphs[0].nodes;
    ASSERT_EQ(nodes.size(), 4u);
    EXPECT_EQ(nodes[0].type, NodeType::Compute);
    EXPECT_DOUBLE_EQ(nodes[0].flops, 2e9);
    EXPECT_EQ(nodes[1].type, NodeType::CommColl);
    EXPECT_EQ(nodes[1].coll, CollectiveType::AllReduce);
    // Input ids resolve to positions; the file ids are kept.
    ASSERT_EQ(wl.graphs[0].depsOf(1).size(), 1u);
    EXPECT_EQ(wl.graphs[0].depsOf(1)[0], 0u);
    EXPECT_EQ(wl.graphs[0].idOf(0), 1);
    EXPECT_EQ(nodes[2].coll, CollectiveType::AllToAll);
    EXPECT_EQ(nodes[3].type, NodeType::Memory);
    EXPECT_EQ(nodes[3].location, MemLocation::Remote);
    EXPECT_NO_THROW(validateWorkload(wl, 2));
}

TEST(Converter, CollectiveKeysMatchAcrossRanks)
{
    Workload wl = convertPyTorchTraces({rankDoc(0), rankDoc(1)});
    // The n-th collective on a process group gets the same key on
    // every rank, and different collectives get different keys.
    EXPECT_EQ(wl.graphs[0].nodes[1].key,
              wl.graphs[1].nodes[1].key);
    EXPECT_EQ(wl.graphs[0].nodes[2].key,
              wl.graphs[1].nodes[2].key);
    EXPECT_NE(wl.graphs[0].nodes[1].key,
              wl.graphs[0].nodes[2].key);
}

TEST(Converter, ProcessGroupTableMapsToGroups)
{
    ProcessGroups groups;
    groups[3] = {GroupDim{0, 2, 1}};
    Workload wl = convertPyTorchTraces({rankDoc(0), rankDoc(1)}, groups);
    std::span<const GroupDim> list =
        wl.groupsOf(wl.graphs[0].nodes[1].groups);
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list[0].size, 2);
}

TEST(Converter, SendRecvNodes)
{
    std::string doc = R"({
      "schema": "pytorch-et", "rank": 0,
      "nodes": [
        {"id": 1, "name": "send", "op": "comm", "inputs": [],
         "attrs": {"comm_type": "send", "peer": 1, "bytes": 1e6,
                   "tag": 4}},
        {"id": 2, "name": "recv", "op": "comm", "inputs": [],
         "attrs": {"comm_type": "recv", "peer": 1, "tag": 5}}
      ]
    })";
    Workload wl = convertPyTorchTraces({json::parse(doc)});
    EXPECT_EQ(wl.graphs[0].nodes[0].type, NodeType::CommSend);
    EXPECT_EQ(wl.graphs[0].nodes[0].peer, 1);
    EXPECT_EQ(wl.graphs[0].nodes[1].type, NodeType::CommRecv);
    EXPECT_EQ(wl.graphs[0].nodes[1].key, 5u);
}

TEST(Converter, RejectsBadInput)
{
    EXPECT_THROW(convertPyTorchTraces({}), FatalError);
    EXPECT_THROW(
        convertPyTorchTraces({json::parse(R"({"schema":"x","rank":0})")}),
        FatalError);
    // Out-of-order ranks.
    EXPECT_THROW(convertPyTorchTraces({rankDoc(1)}), FatalError);
    // Unknown op kind.
    std::string bad = R"({"schema":"pytorch-et","rank":0,
        "nodes":[{"id":1,"op":"mystery","inputs":[]}]})";
    EXPECT_THROW(convertPyTorchTraces({json::parse(bad)}), FatalError);
}

/** Expect converting a one-node rank-0 document to fail with a
 *  message containing `what`. */
void
expectRejects(const std::string &node, const std::string &what)
{
    std::string doc =
        R"({"schema": "pytorch-et", "rank": 0, "nodes": [)" + node + "]}";
    try {
        convertPyTorchTraces({json::parse(doc)});
        FAIL() << "accepted " << node;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << "message: " << e.what() << "\nexpected substring: "
            << what;
    }
}

TEST(Converter, OutOfRangeIdRejected)
{
    expectRejects(R"({"id": 4294967296, "op": "compute"})",
                  "rank 0: nodes[0].id: expected an integer");
}

TEST(Converter, OutOfRangeInputRejected)
{
    // 4294967296 used to wrap to id 0.
    expectRejects(R"({"id": 0, "op": "compute"},
                     {"id": 1, "op": "compute", "inputs": [4294967296]})",
                  "rank 0: nodes[1].inputs[0]: expected an integer");
}

TEST(Converter, OutOfRangePeerRejected)
{
    expectRejects(R"({"id": 1, "op": "comm", "attrs": {
                       "comm_type": "recv", "peer": 2.5}})",
                  "rank 0: nodes[0].attrs.peer: expected an integer");
}

TEST(Converter, OutOfRangeTagRejected)
{
    expectRejects(R"({"id": 1, "op": "comm", "attrs": {
                       "comm_type": "send", "peer": 0, "tag": -1}})",
                  "rank 0: nodes[0].attrs.tag: expected an integer in "
                  "[0, 9007199254740991]");
}

TEST(Converter, OutOfRangeProcessGroupRejected)
{
    // The key is pg << 32 | occurrence and must stay below 2^53.
    expectRejects(R"({"id": 1, "op": "comm", "attrs": {
                       "comm_type": "all_reduce", "pg": 2097152}})",
                  "rank 0: nodes[0].attrs.pg: expected an integer in "
                  "[0, 2097151]");
}

} // namespace
} // namespace astra
