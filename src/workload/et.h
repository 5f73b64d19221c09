/**
 * @file
 * ASTRA-sim execution traces (ETs), paper §IV-A / Fig. 1(b).
 *
 * An ET encodes the execution of an ML model and its parallelization
 * strategy as one dependency graph per NPU. Node types follow the
 * paper: compute nodes carry FLOP count and tensor size (timed by the
 * roofline model), memory nodes carry tensor size and location (timed
 * by the Memory API), and communication nodes are either collectives
 * (type + size + group) or point-to-point send/receive pairs.
 * Parallelization strategies are encoded purely through node metadata
 * and dependency edges, which is what decouples them from the
 * simulator frontend.
 *
 * Layout. A workload of a million nodes must cost tens of megabytes,
 * not hundreds, so graphs are stored flat:
 *  - each EtGraph keeps its nodes in one array of trivially copyable
 *    48-byte EtNode records with no owning members. The per-type
 *    sizes share one `bytes` field and the collective key shares one
 *    `key` field with the send/recv tag;
 *  - dependencies are one CSR array of node *positions* per graph
 *    (EtGraph::deps, row starts in EtNode::firstDep). A node can only
 *    name a parent by position, so nothing after construction looks
 *    an id up;
 *  - node names and collective group lists are interned once per
 *    Workload; nodes hold their uint32_t ids.
 * ET JSON files name nodes by file id. IdGraphBuilder resolves those
 * ids to positions once, in the loader, and keeps them (EtGraph::ids)
 * only when they differ from the positions, so the writer can emit the
 * original ids.
 */
#ifndef ASTRA_WORKLOAD_ET_H_
#define ASTRA_WORKLOAD_ET_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "collective/types.h"
#include "common/string_table.h"
#include "memory/memory_api.h"
#include "topology/topology.h"

namespace astra {

/** ET node kinds (Fig. 1(b): compute, memory, communication). */
enum class NodeType : uint8_t {
    Compute,
    Memory,
    CommColl,
    CommSend,
    CommRecv,
};

const char *nodeTypeName(NodeType t);
NodeType parseNodeType(const std::string &name);

/** One ET node; the meaningful fields depend on `type`. Build one
 *  with the factories below and append it with EtGraph::add(). */
struct EtNode
{
    Flops flops = 0.0; //!< compute: FLOP count (§IV-A).
    /** compute: tensor bytes touched; memory: bytes moved;
     *  collective: payload; send: message size. */
    Bytes bytes = 0.0;
    /** collective: rendezvous key, equal across the group's NPUs;
     *  send/recv: the tag both sides match on. */
    uint64_t key = 0;
    uint32_t name = 0;   //!< Workload name id; 0 = unnamed.
    uint32_t groups = 0; //!< Workload group-list id; 0 = whole topology.
    NpuId peer = -1;     //!< send/recv peer.
    /** First parent in EtGraph::deps; set by EtGraph::add(). */
    uint32_t firstDep = 0;
    NodeType type = NodeType::Compute;
    CollectiveType coll = CollectiveType::AllReduce;
    MemLocation location = MemLocation::Local;
    MemOp memOp = MemOp::Load;
    bool fused = false; //!< in-switch collective fusion (§IV-D.3).

    static EtNode
    compute(Flops flops, Bytes tensor_bytes)
    {
        return {.flops = flops, .bytes = tensor_bytes,
                .type = NodeType::Compute};
    }
    static EtNode
    memory(MemLocation loc, MemOp op, Bytes bytes, bool fused = false)
    {
        return {.bytes = bytes, .type = NodeType::Memory, .location = loc,
                .memOp = op, .fused = fused};
    }
    static EtNode
    collective(CollectiveType type, Bytes bytes, uint64_t key,
               uint32_t groups = 0)
    {
        return {.bytes = bytes, .key = key, .groups = groups,
                .type = NodeType::CommColl, .coll = type};
    }
    static EtNode
    send(NpuId peer, Bytes bytes, uint64_t tag)
    {
        return {.bytes = bytes, .key = tag, .peer = peer,
                .type = NodeType::CommSend};
    }
    static EtNode
    recv(NpuId peer, uint64_t tag)
    {
        return {.key = tag, .peer = peer, .type = NodeType::CommRecv};
    }
};

/** One NPU's dependency graph (see the file comment for the layout). */
struct EtGraph
{
    NpuId npu = 0;
    std::vector<EtNode> nodes;
    /** Parent positions: node i's are deps[nodes[i].firstDep ..
     *  nodes[i + 1].firstDep), the last row ending at deps.size(). */
    std::vector<uint32_t> deps;
    /** File ids from an ET JSON file, one per node; empty
     *  when every node's id is its position. */
    std::vector<int> ids;

    /** Append `node` after the given parent positions; returns its
     *  position. */
    uint32_t add(EtNode node, std::span<const uint32_t> parents);
    uint32_t add(EtNode node, std::initializer_list<uint32_t> parents = {})
    {
        return add(node, std::span<const uint32_t>(parents.begin(),
                                                   parents.size()));
    }

    std::span<const uint32_t> depsOf(size_t i) const
    {
        size_t end = i + 1 < nodes.size() ? nodes[i + 1].firstDep
                                          : deps.size();
        return {deps.data() + nodes[i].firstDep, end - nodes[i].firstDep};
    }
    /** Node i's file id (its position unless `ids` says otherwise). */
    int idOf(size_t i) const { return ids.empty() ? int(i) : ids[i]; }

    /**
     * The reverse of `deps`, built by counting: node i's children, in
     * ascending position order, are children[start[i] - base ..
     * start[i + 1] - base). Writes nodes.size() + 1 row starts and
     * deps.size() children; every dependency must name a node of this
     * graph (validateWorkload).
     */
    void childCsr(uint32_t base, uint32_t *start, uint32_t *children) const;
};

/**
 * Builds one EtGraph from nodes that name themselves and their
 * parents by file id, as ET JSON files do. finish() resolves the ids
 * to positions; it fatal()s on a negative or duplicate id, a missing
 * dependency or a self-dependency. Ids may
 * be sparse, out of order and up to INT_MAX, and a node may depend on
 * one listed after it.
 */
class IdGraphBuilder
{
  public:
    /** Append a node with file id `id`. */
    void add(int id, EtNode node);
    /** Add file id `id` to the last node's parents. */
    void dep(int id) { depIds_.push_back(id); }

    /** NPU `npu`'s graph (ET JSON lists the NPU after its nodes). */
    EtGraph finish(NpuId npu) &&;

  private:
    EtGraph graph_;
    std::vector<int> depIds_;
};

/** A complete workload: one graph per NPU, plus the name and group
 *  tables its nodes index. */
struct Workload
{
    std::string name;
    std::vector<EtGraph> graphs;

    /** Id of node name `s`, added on first use; "" is id 0. */
    uint32_t internName(std::string_view s) { return names_.intern(s); }
    const std::string &nameOf(uint32_t id) const { return names_[id]; }
    size_t nameCount() const { return names_.size(); }

    /** Id of a collective group list, added on first use; the empty
     *  list (whole topology) is id 0. */
    uint32_t internGroups(std::span<const GroupDim> groups);
    std::span<const GroupDim> groupsOf(uint32_t id) const
    {
        return {groupDims_.data() + groupStart_[id],
                groupStart_[id + 1] - groupStart_[id]};
    }
    size_t groupCount() const { return groupKeys_.size(); }

    size_t totalNodes() const;

    /**
     * Heap bytes held by the graphs and the name and group tables
     * (telemetry footprint protocol, docs/observability.md):
     * capacity-based, so a deterministic function of how the
     * workload was built.
     */
    size_t bytesInUse() const;

  private:
    StringTable names_{""};
    /** Group list k is groupDims_[groupStart_[k] .. groupStart_[k+1]);
     *  groupKeys_ interns the lists' raw bytes (GroupDim is three
     *  ints), so a list's id is its key's id. */
    StringTable groupKeys_{""};
    std::vector<GroupDim> groupDims_;
    std::vector<uint32_t> groupStart_{0, 0};
};

/**
 * Validate a workload against a topology size: one graph per NPU in
 * order, dependencies naming existing other nodes, acyclic graphs,
 * peers in range. One linear pass per graph; a cycle search runs only
 * when some dependency does not precede its node. fatal() on
 * violations (ETs are user input).
 */
void validateWorkload(const Workload &wl, int npus);

} // namespace astra

#endif // ASTRA_WORKLOAD_ET_H_
