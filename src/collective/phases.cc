#include "collective/phases.h"

namespace astra {

namespace {

bool
isPowerOfTwo(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

} // namespace

PhaseAlgorithm
algorithmFor(BlockType type, int group_size)
{
    switch (type) {
      case BlockType::Ring:
        return PhaseAlgorithm::Ring;
      case BlockType::FullyConnected:
        return PhaseAlgorithm::Direct;
      case BlockType::Switch:
        // Halving-Doubling needs a power-of-two group; otherwise run
        // Direct through the switch (still congestion-free).
        return isPowerOfTwo(group_size) ? PhaseAlgorithm::HalvingDoubling
                                        : PhaseAlgorithm::Direct;
    }
    return PhaseAlgorithm::Ring;
}

std::vector<Phase>
buildPhases(const Topology &topo, CollectiveType type, Bytes chunk_bytes,
            const std::vector<GroupDim> &rs_order)
{
    std::vector<Phase> phases;
    auto make_phase = [&](const GroupDim &g, PhaseOp op, Bytes tensor) {
        Phase p;
        p.group = g;
        p.op = op;
        p.algorithm = algorithmFor(topo.dim(g.dim).type, g.size);
        // All-to-All is a direct exchange pattern: recursive
        // halving/doubling does not apply (every pair owns distinct
        // data), so switch dims degrade to Direct through the switch.
        if (op == PhaseOp::AllToAll &&
            p.algorithm == PhaseAlgorithm::HalvingDoubling) {
            p.algorithm = PhaseAlgorithm::Direct;
        }
        p.tensorBytes = tensor;
        return p;
    };

    switch (type) {
      case CollectiveType::ReduceScatter: {
        Bytes cur = chunk_bytes;
        for (const GroupDim &g : rs_order) {
            if (g.size < 2)
                continue;
            phases.push_back(make_phase(g, PhaseOp::ReduceScatter, cur));
            cur /= double(g.size);
        }
        break;
      }
      case CollectiveType::AllGather: {
        // Pure All-Gather runs in the All-Gather direction: the
        // reverse of rs_order (descending dims under the baseline
        // ascending order, matching §II-B.2 and Table IV).
        Bytes shard = chunk_bytes;
        for (const GroupDim &g : rs_order) {
            if (g.size >= 2)
                shard /= double(g.size);
        }
        Bytes cur = shard;
        for (auto it = rs_order.rbegin(); it != rs_order.rend(); ++it) {
            if (it->size < 2)
                continue;
            cur *= double(it->size);
            phases.push_back(make_phase(*it, PhaseOp::AllGather, cur));
        }
        break;
      }
      case CollectiveType::AllReduce: {
        Bytes cur = chunk_bytes;
        for (const GroupDim &g : rs_order) {
            if (g.size < 2)
                continue;
            phases.push_back(make_phase(g, PhaseOp::ReduceScatter, cur));
            cur /= double(g.size);
        }
        for (auto it = rs_order.rbegin(); it != rs_order.rend(); ++it) {
            if (it->size < 2)
                continue;
            cur *= double(it->size);
            phases.push_back(make_phase(*it, PhaseOp::AllGather, cur));
        }
        break;
      }
      case CollectiveType::AllToAll: {
        // Hierarchical All-to-All: exchange within each dimension in
        // turn; the working set does not shrink, so every phase
        // carries the full chunk.
        for (const GroupDim &g : rs_order) {
            if (g.size < 2)
                continue;
            phases.push_back(make_phase(g, PhaseOp::AllToAll, chunk_bytes));
        }
        break;
      }
    }
    return phases;
}

Bytes
phaseSentBytes(const Phase &phase)
{
    int k = phase.group.size;
    return phase.tensorBytes * double(k - 1) / double(k);
}

int
phaseSteps(const Phase &phase)
{
    int k = phase.group.size;
    if (k < 2)
        return 0;
    switch (phase.algorithm) {
      case PhaseAlgorithm::Ring:
        return k - 1;
      case PhaseAlgorithm::Direct:
        return 1;
      case PhaseAlgorithm::HalvingDoubling: {
        int steps = 0;
        for (int v = k; v > 1; v >>= 1)
            ++steps;
        return steps;
      }
    }
    return 0;
}

std::vector<Bytes>
perDimSentBytes(const Topology &topo, CollectiveType type, Bytes bytes,
                const std::vector<GroupDim> &rs_order)
{
    std::vector<Bytes> sent;
    perDimSentBytesInto(topo, type, bytes, rs_order, sent);
    return sent;
}

void
perDimSentBytesInto(const Topology &topo, CollectiveType type, Bytes bytes,
                    const std::vector<GroupDim> &rs_order,
                    std::vector<Bytes> &sent)
{
    // Closed form of summing phaseSentBytes() over buildPhases(): each
    // phase over a factor of size k sends (k-1)/k of its large-side
    // tensor, and the working set shrinks by k per Reduce-Scatter step
    // (growing back symmetrically for All-Gather, so the per-dimension
    // contributions of the gather direction equal the scatter
    // direction at the same hierarchy level).
    sent.assign(static_cast<size_t>(topo.numDims()), 0.0);
    Bytes cur = bytes;
    for (const GroupDim &g : rs_order) {
        if (g.size < 2)
            continue;
        Bytes share = cur * double(g.size - 1) / double(g.size);
        switch (type) {
          case CollectiveType::ReduceScatter:
          case CollectiveType::AllGather:
            sent[static_cast<size_t>(g.dim)] += share;
            cur /= double(g.size);
            break;
          case CollectiveType::AllReduce:
            // RS + AG phase pair at the same working-set size.
            sent[static_cast<size_t>(g.dim)] += 2.0 * share;
            cur /= double(g.size);
            break;
          case CollectiveType::AllToAll:
            // Working set does not shrink across dimensions.
            sent[static_cast<size_t>(g.dim)] +=
                bytes * double(g.size - 1) / double(g.size);
            break;
        }
    }
}

std::vector<GroupDim>
wholeTopologyGroups(const Topology &topo)
{
    std::vector<GroupDim> groups;
    for (int d = 0; d < topo.numDims(); ++d)
        groups.push_back(topo.normalizeGroup(GroupDim{d, 0, 1}));
    return groups;
}

std::vector<GroupDim>
normalizedGroups(const Topology &topo, const CollectiveRequest &req)
{
    if (req.groups.empty())
        return wholeTopologyGroups(topo);
    std::vector<GroupDim> groups;
    groups.reserve(req.groups.size());
    for (const GroupDim &g : req.groups)
        groups.push_back(topo.normalizeGroup(g));
    return groups;
}

} // namespace astra
