#include "workload/converter.h"

#include <climits>
#include <cstdint>

#include "common/logging.h"

namespace astra {

namespace {

/** No array index in a field path. */
constexpr size_t kNoIndex = SIZE_MAX;

/** Process-group ids become the high bits of 53-bit collective keys
 *  (pg << 32 | occurrence), so they must stay below 2^21. */
constexpr int64_t kMaxProcessGroup = (int64_t(1) << 21) - 1;

/** Appends document node `nodes[i]` of rank `rank` to `b`, assigning
 *  collective keys per process group from `pg_counter`. Integer
 *  fields are range-checked before narrowing; an error names the
 *  field's path. */
void
convertNode(Workload &wl, IdGraphBuilder &b, const json::Value &v,
            size_t rank, size_t i, const ProcessGroups &groups,
            std::map<int64_t, uint64_t> &pg_counter)
{
    // The path "rank r: nodes[i].<key>[k]" is formatted only for an
    // error.
    auto field = [&](const json::Value &x, int64_t lo, int64_t hi,
                     const char *key, size_t k = kNoIndex) {
        return json::checkedInt(x, lo, hi, [&] {
            std::string path = detail::formatV("rank %zu: nodes[%zu].%s",
                                               rank, i, key);
            if (k != kNoIndex)
                path += detail::formatV("[%zu]", k);
            return path;
        });
    };
    auto int_field = [&](const json::Value &x, const char *key,
                         size_t k = kNoIndex) {
        return static_cast<int>(field(x, INT_MIN, INT_MAX, key, k));
    };

    const int id = int_field(v.at("id"), "id");
    EtNode node;
    node.name = wl.internName(v.getString("name", ""));
    const std::string &op = v.at("op").asString();
    static const json::Value kNoAttrs{json::Object{}};
    const json::Value &attrs = v.has("attrs") ? v.at("attrs") : kNoAttrs;
    auto attr_int = [&](const char *key, const char *path, int64_t lo,
                        int64_t hi, int64_t dflt) {
        return attrs.has(key) ? field(attrs.at(key), lo, hi, path) : dflt;
    };

    if (op == "compute") {
        node.type = NodeType::Compute;
        node.flops = attrs.getNumber("flops", 0.0);
        node.bytes = attrs.getNumber("bytes", 0.0);
    } else if (op == "memory") {
        node.type = NodeType::Memory;
        node.bytes = attrs.getNumber("bytes", 0.0);
        node.location = attrs.getString("location", "local") == "remote"
                            ? MemLocation::Remote
                            : MemLocation::Local;
        node.memOp = attrs.getString("rw", "load") == "store"
                         ? MemOp::Store
                         : MemOp::Load;
        node.fused = attrs.getBool("fused", false);
    } else if (op == "comm") {
        std::string comm_type = attrs.getString("comm_type", "");
        if (comm_type == "send" || comm_type == "recv") {
            node.type = comm_type == "send" ? NodeType::CommSend
                                            : NodeType::CommRecv;
            node.peer = static_cast<NpuId>(
                attr_int("peer", "attrs.peer", INT_MIN, INT_MAX, -1));
            if (node.type == NodeType::CommSend)
                node.bytes = attrs.getNumber("bytes", 0.0);
            node.key = static_cast<uint64_t>(
                attr_int("tag", "attrs.tag", 0, json::kMaxExactInt, 0));
        } else {
            node.type = NodeType::CommColl;
            node.coll = parseCollectiveType(comm_type);
            node.bytes = attrs.getNumber("bytes", 0.0);
            int64_t pg = attr_int("pg", "attrs.pg", 0, kMaxProcessGroup, 0);
            uint64_t occurrence = pg_counter[pg]++;
            node.key = (static_cast<uint64_t>(pg) << 32) | occurrence;
            auto it = groups.find(pg);
            if (it != groups.end())
                node.groups = wl.internGroups(it->second);
        }
    } else {
        fatal("pytorch-et: unknown op kind '%s' (node %d)", op.c_str(), id);
    }
    b.add(id, node);
    if (v.has("inputs")) {
        const json::Array &inputs = v.at("inputs").asArray();
        for (size_t k = 0; k < inputs.size(); ++k)
            b.dep(int_field(inputs[k], "inputs", k));
    }
}

} // namespace

Workload
convertPyTorchTraces(const std::vector<json::Value> &rank_docs,
                     const ProcessGroups &groups)
{
    ASTRA_USER_CHECK(!rank_docs.empty(), "converter: no rank documents");
    Workload wl;
    wl.name = "converted-pytorch-et";

    // Collective rendezvous keys must be equal across ranks for the
    // same logical collective. PyTorch traces are SPMD per process
    // group: the n-th collective on a given pg matches across ranks.
    // Key = (pg id, per-pg occurrence counter), assembled per rank.
    for (size_t rank = 0; rank < rank_docs.size(); ++rank) {
        const json::Value &doc = rank_docs[rank];
        ASTRA_USER_CHECK(doc.getString("schema", "") == "pytorch-et",
                         "converter: document %zu is not a pytorch-et "
                         "trace",
                         rank);
        ASTRA_USER_CHECK(
            static_cast<size_t>(doc.at("rank").asInt()) == rank,
            "converter: rank documents out of order (got %lld at %zu)",
            static_cast<long long>(doc.at("rank").asInt()), rank);

        IdGraphBuilder b;
        std::map<int64_t, uint64_t> pg_counter;
        const json::Array &nodes = doc.at("nodes").asArray();
        for (size_t i = 0; i < nodes.size(); ++i)
            convertNode(wl, b, nodes[i], rank, i, groups, pg_counter);
        wl.graphs.push_back(std::move(b).finish(static_cast<NpuId>(rank)));
    }
    return wl;
}

} // namespace astra
