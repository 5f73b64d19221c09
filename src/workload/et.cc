#include "workload/et.h"

#include <algorithm>
#include <type_traits>

#include "common/logging.h"

namespace astra {

static_assert(std::is_trivially_copyable_v<EtNode> && sizeof(EtNode) <= 48,
              "EtNode must stay a flat record of at most 48 bytes (see "
              "the et.h file comment)");

const char *
nodeTypeName(NodeType t)
{
    switch (t) {
      case NodeType::Compute: return "compute";
      case NodeType::Memory: return "memory";
      case NodeType::CommColl: return "comm_coll";
      case NodeType::CommSend: return "comm_send";
      case NodeType::CommRecv: return "comm_recv";
    }
    return "?";
}

NodeType
parseNodeType(const std::string &name)
{
    if (name == "compute")
        return NodeType::Compute;
    if (name == "memory")
        return NodeType::Memory;
    if (name == "comm_coll")
        return NodeType::CommColl;
    if (name == "comm_send")
        return NodeType::CommSend;
    if (name == "comm_recv")
        return NodeType::CommRecv;
    fatal("unknown ET node type '%s'", name.c_str());
}

uint32_t
EtGraph::add(EtNode node, std::span<const uint32_t> parents)
{
    node.firstDep = static_cast<uint32_t>(deps.size());
    deps.insert(deps.end(), parents.begin(), parents.end());
    nodes.push_back(node);
    return static_cast<uint32_t>(nodes.size() - 1);
}

void
EtGraph::childCsr(uint32_t base, uint32_t *start, uint32_t *children) const
{
    const size_t n = nodes.size();
    std::fill(start, start + n + 1, 0u);
    for (uint32_t p : deps) {
        ASTRA_ASSERT(p < n, "NPU %d: unvalidated dependency %u", npu, p);
        ++start[p];
    }
    uint32_t end = base; // prefix sums: row ends.
    for (size_t i = 0; i < n; ++i)
        start[i] = end += start[i];
    start[n] = end;
    // Fill each row from its end, walking the nodes backwards, so the
    // rows come out ascending and the starts land on row begins.
    for (size_t i = n; i-- > 0;) {
        std::span<const uint32_t> parents = depsOf(i);
        for (size_t k = parents.size(); k-- > 0;)
            children[--start[parents[k]] - base] = uint32_t(i);
    }
}

void
IdGraphBuilder::add(int id, EtNode node)
{
    node.firstDep = static_cast<uint32_t>(depIds_.size());
    graph_.nodes.push_back(node);
    graph_.ids.push_back(id);
}

EtGraph
IdGraphBuilder::finish(NpuId npu) &&
{
    EtGraph &g = graph_;
    g.npu = npu;
    const size_t n = g.nodes.size();
    bool sequential = true;
    for (size_t i = 0; i < n; ++i) {
        ASTRA_USER_CHECK(g.ids[i] >= 0, "NPU %d: negative node id", npu);
        sequential = sequential && size_t(g.ids[i]) == i;
    }

    std::vector<std::pair<int, uint32_t>> byId;
    byId.reserve(n);
    for (size_t i = 0; i < n; ++i)
        byId.emplace_back(g.ids[i], uint32_t(i));
    std::sort(byId.begin(), byId.end());
    for (size_t k = 1; k < n; ++k)
        ASTRA_USER_CHECK(byId[k].first != byId[k - 1].first,
                         "NPU %d: duplicate node id %d", npu, byId[k].first);

    // Position of file id `dep`, or n when no node has it.
    auto position = [&](int dep) -> size_t {
        auto it = std::lower_bound(byId.begin(), byId.end(),
                                   std::make_pair(dep, 0u));
        return it != byId.end() && it->first == dep ? it->second : n;
    };
    g.deps.resize(depIds_.size());
    for (size_t i = 0; i < n; ++i) {
        size_t end = i + 1 < n ? g.nodes[i + 1].firstDep : depIds_.size();
        for (size_t k = g.nodes[i].firstDep; k < end; ++k) {
            const size_t pos = position(depIds_[k]);
            ASTRA_USER_CHECK(pos < n, "NPU %d node %d: missing dependency %d",
                             npu, g.ids[i], depIds_[k]);
            ASTRA_USER_CHECK(pos != i, "NPU %d node %d depends on itself",
                             npu, g.ids[i]);
            g.deps[k] = uint32_t(pos);
        }
    }
    g.nodes.shrink_to_fit(); // no push_back slack in a loaded graph.
    if (sequential)
        g.ids = std::vector<int>(); // positions stand for the ids.
    return std::move(g);
}

uint32_t
Workload::internGroups(std::span<const GroupDim> groups)
{
    static_assert(sizeof(GroupDim) == 3 * sizeof(int),
                  "GroupDim must have no padding to key by its bytes");
    const size_t known = groupKeys_.size();
    uint32_t id = groupKeys_.intern(std::string_view(
        reinterpret_cast<const char *>(groups.data()), groups.size_bytes()));
    if (id == known) {
        groupDims_.insert(groupDims_.end(), groups.begin(), groups.end());
        groupStart_.push_back(static_cast<uint32_t>(groupDims_.size()));
    }
    return id;
}

size_t
Workload::totalNodes() const
{
    size_t n = 0;
    for (const EtGraph &g : graphs)
        n += g.nodes.size();
    return n;
}

size_t
Workload::bytesInUse() const
{
    size_t bytes = graphs.capacity() * sizeof(EtGraph);
    for (const EtGraph &g : graphs)
        bytes += g.nodes.capacity() * sizeof(EtNode) +
                 g.deps.capacity() * sizeof(uint32_t) +
                 g.ids.capacity() * sizeof(int);
    return bytes + names_.bytesInUse() + groupKeys_.bytesInUse() +
           groupDims_.capacity() * sizeof(GroupDim) +
           groupStart_.capacity() * sizeof(uint32_t);
}

namespace {

/** fatal() if graph `g` has a dependency cycle (Kahn's algorithm). */
void
checkAcyclic(const EtGraph &g)
{
    const size_t n = g.nodes.size();
    std::vector<uint32_t> childStart(n + 1), children(g.deps.size());
    g.childCsr(0, childStart.data(), children.data());
    std::vector<uint32_t> indegree(n), ready;
    for (size_t i = 0; i < n; ++i) {
        indegree[i] = uint32_t(g.depsOf(i).size());
        if (indegree[i] == 0)
            ready.push_back(uint32_t(i));
    }
    size_t seen = 0;
    while (!ready.empty()) {
        uint32_t i = ready.back();
        ready.pop_back();
        ++seen;
        for (uint32_t c = childStart[i]; c < childStart[i + 1]; ++c)
            if (--indegree[children[c]] == 0)
                ready.push_back(children[c]);
    }
    ASTRA_USER_CHECK(seen == n,
                     "NPU %d: dependency cycle in execution trace", g.npu);
}

} // namespace

void
validateWorkload(const Workload &wl, int npus)
{
    ASTRA_USER_CHECK(static_cast<int>(wl.graphs.size()) == npus,
                     "workload '%s' has %zu graphs but the topology has "
                     "%d NPUs",
                     wl.name.c_str(), wl.graphs.size(), npus);
    for (int n = 0; n < npus; ++n) {
        const EtGraph &g = wl.graphs[static_cast<size_t>(n)];
        ASTRA_USER_CHECK(g.npu == n,
                         "graph %d is labelled for NPU %d", n, g.npu);
        ASTRA_ASSERT(g.ids.empty() || g.ids.size() == g.nodes.size(),
                     "NPU %d: %zu file ids for %zu nodes", n,
                     g.ids.size(), g.nodes.size());

        // One pass: every dependency names another node of this graph.
        // When each one also precedes its node, the graph is acyclic.
        bool forward = true;
        for (size_t i = 0; i < g.nodes.size(); ++i) {
            const EtNode &node = g.nodes[i];
            size_t end = i + 1 < g.nodes.size() ? g.nodes[i + 1].firstDep
                                                : g.deps.size();
            ASTRA_ASSERT((i > 0 || node.firstDep == 0) &&
                             node.firstDep <= end && end <= g.deps.size(),
                         "NPU %d: malformed dependency rows", n);
            ASTRA_ASSERT(node.name < wl.nameCount() &&
                             node.groups < wl.groupCount(),
                         "NPU %d node %d: name or group id out of range",
                         n, g.idOf(i));
            if (node.type == NodeType::CommSend ||
                node.type == NodeType::CommRecv) {
                ASTRA_USER_CHECK(node.peer >= 0 && node.peer < npus,
                                 "NPU %d node %d: peer %d out of range",
                                 n, g.idOf(i), node.peer);
            }
            for (uint32_t p : g.depsOf(i)) {
                ASTRA_USER_CHECK(p < g.nodes.size(),
                                 "NPU %d node %d: missing dependency %u",
                                 n, g.idOf(i), p);
                ASTRA_USER_CHECK(p != i,
                                 "NPU %d node %d depends on itself", n,
                                 g.idOf(i));
                forward = forward && p < i;
            }
        }
        if (!forward)
            checkAcyclic(g);
    }
}

} // namespace astra
