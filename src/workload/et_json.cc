#include "workload/et_json.h"

#include <climits>
#include <cstdint>
#include <functional>

#include "common/json.h"
#include "common/logging.h"
#include "common/output_file.h"

namespace astra {

namespace {

constexpr const char *kSchema = "astra-sim-et-v2";

/** No array index in a field path. */
constexpr size_t kNoIndex = SIZE_MAX;

json::Value
nodeToJson(const Workload &wl, const EtGraph &g, size_t i)
{
    const EtNode &node = g.nodes[i];
    const int id = g.idOf(i);
    json::Object o;
    o["id"] = json::Value(id);
    o["type"] = json::Value(nodeTypeName(node.type));
    if (node.name != 0)
        o["name"] = json::Value(wl.nameOf(node.name));
    std::span<const uint32_t> parents = g.depsOf(i);
    if (!parents.empty()) {
        json::Array deps;
        for (uint32_t p : parents)
            deps.push_back(json::Value(g.idOf(p)));
        o["deps"] = json::Value(std::move(deps));
    }
    // JSON numbers are doubles: keys and tags beyond 2^53 would
    // silently collide after a round trip.
    auto exact_key = [&](const char *what) {
        ASTRA_USER_CHECK(node.key <= uint64_t(json::kMaxExactInt),
                         "ET node %d: %s %llu too large to serialize", id,
                         what, static_cast<unsigned long long>(node.key));
        return json::Value(static_cast<double>(node.key));
    };
    switch (node.type) {
      case NodeType::Compute:
        o["flops"] = json::Value(node.flops);
        o["tensor_bytes"] = json::Value(node.bytes);
        break;
      case NodeType::Memory:
        o["op"] = json::Value(memOpName(node.memOp));
        o["location"] = json::Value(memLocationName(node.location));
        o["bytes"] = json::Value(node.bytes);
        if (node.fused)
            o["fused"] = json::Value(true);
        break;
      case NodeType::CommColl: {
        o["coll"] = json::Value(collectiveName(node.coll));
        o["bytes"] = json::Value(node.bytes);
        o["key"] = exact_key("collective key");
        std::span<const GroupDim> list = wl.groupsOf(node.groups);
        if (!list.empty()) {
            json::Array groups;
            for (const GroupDim &gd : list) {
                json::Object go;
                go["dim"] = json::Value(gd.dim);
                go["size"] = json::Value(gd.size);
                go["stride"] = json::Value(gd.stride);
                groups.push_back(json::Value(std::move(go)));
            }
            o["groups"] = json::Value(std::move(groups));
        }
        break;
      }
      case NodeType::CommSend:
        o["peer"] = json::Value(node.peer);
        o["bytes"] = json::Value(node.bytes);
        o["tag"] = exact_key("tag");
        break;
      case NodeType::CommRecv:
        o["peer"] = json::Value(node.peer);
        o["tag"] = exact_key("tag");
        break;
    }
    return json::Value(std::move(o));
}

/** The keys of a node, of one of its groups, of a graph and of the
 *  document, each table in its enum's order. */
constexpr std::string_view kNodeKeys[] = {
    "type", "name", "flops", "tensor_bytes", "op", "location", "bytes",
    "fused", "coll", "key", "groups", "peer", "tag", "id", "deps"};
enum { kType, kName, kFlops, kTensorBytes, kOp, kLocation, kBytes,
       kFused, kColl, kKey, kGroups, kPeer, kTag, kId, kDeps };
constexpr std::string_view kGroupKeys[] = {"dim", "size", "stride"};
enum { kDim, kSize, kStride };
constexpr std::string_view kGraphKeys[] = {"npu", "nodes"};
enum { kNpu, kNodes };
constexpr std::string_view kDocKeys[] = {"schema", "name", "npus",
                                         "graphs"};
enum { kDocSchema, kDocName, kDocNpus, kDocGraphs };

/** One node's fields, with its "deps" and "groups" arrays read an
 *  element at a time. */
struct NodeRecord
{
    json::Fields fields{kNodeKeys};
    std::vector<json::Value> deps;
    std::vector<json::Fields> groups;

    void
    read(json::Reader &r)
    {
        fields.read(r, [&](size_t k) {
            if ((k != kDeps && k != kGroups) || r.next() != '[')
                return false;
            if (k == kDeps) {
                deps.clear();
                r.array([&] { deps.push_back(r.value()); });
            } else {
                groups.clear();
                r.array([&] { groups.emplace_back(kGroupKeys).read(r); });
            }
            return true;
        });
    }
};

/** Appends `rec`, document node `nodes[i]` of graph `g`, to `b`.
 *  Integer fields are range-checked before narrowing; an error names
 *  the field's path in the document. */
void
addNode(Workload &wl, IdGraphBuilder &b, const NodeRecord &rec, size_t g,
        size_t i)
{
    const json::Fields &v = rec.fields;
    // The path "graphs[g].nodes[i].<key>[k].<sub>" is formatted only
    // for an error.
    auto field = [&](const json::Value &x, int64_t lo, int64_t hi,
                     size_t key, size_t k = kNoIndex,
                     const char *sub = nullptr) {
        return json::checkedInt(x, lo, hi, [&] {
            std::string path = detail::formatV(
                "graphs[%zu].nodes[%zu].%s", g, i, kNodeKeys[key].data());
            if (k != kNoIndex)
                path += detail::formatV("[%zu]", k);
            if (sub)
                path += std::string(".") + sub;
            return path;
        });
    };
    auto int_field = [&](const json::Value &x, size_t key,
                         size_t k = kNoIndex, const char *sub = nullptr) {
        return static_cast<int>(field(x, INT_MIN, INT_MAX, key, k, sub));
    };
    // Keys and tags must round-trip through the writer.
    auto key_field = [&](size_t key) {
        return v.has(key) ? static_cast<uint64_t>(field(
                                v.at(key), 0, json::kMaxExactInt, key))
                          : 0;
    };

    EtNode node;
    node.type = parseNodeType(v.at(kType).asString());
    node.name = wl.internName(v.getString(kName, ""));
    switch (node.type) {
      case NodeType::Compute:
        node.flops = v.getNumber(kFlops, 0.0);
        node.bytes = v.getNumber(kTensorBytes, 0.0);
        break;
      case NodeType::Memory:
        node.memOp = v.getString(kOp, "load") == "store" ? MemOp::Store
                                                         : MemOp::Load;
        node.location = v.getString(kLocation, "local") == "remote"
                            ? MemLocation::Remote
                            : MemLocation::Local;
        node.bytes = v.getNumber(kBytes, 0.0);
        node.fused = v.getBool(kFused, false);
        break;
      case NodeType::CommColl: {
        node.coll = parseCollectiveType(v.at(kColl).asString());
        node.bytes = v.getNumber(kBytes, 0.0);
        node.key = key_field(kKey);
        if (v.has(kGroups)) {
            if (!v.taken(kGroups))
                v.at(kGroups).asArray(); // fails: not an array.
            std::vector<GroupDim> groups;
            for (size_t k = 0; k < rec.groups.size(); ++k) {
                const json::Fields &gv = rec.groups[k];
                auto group_field = [&](size_t key, int dflt) {
                    return gv.has(key)
                               ? int_field(gv.at(key), kGroups, k,
                                           kGroupKeys[key].data())
                               : dflt;
                };
                GroupDim gd;
                gd.dim = int_field(gv.at(kDim), kGroups, k, "dim");
                gd.size = group_field(kSize, 0);
                gd.stride = group_field(kStride, 1);
                groups.push_back(gd);
            }
            node.groups = wl.internGroups(groups);
        }
        break;
      }
      case NodeType::CommSend:
        node.peer = int_field(v.at(kPeer), kPeer);
        node.bytes = v.getNumber(kBytes, 0.0);
        node.key = key_field(kTag);
        break;
      case NodeType::CommRecv:
        node.peer = int_field(v.at(kPeer), kPeer);
        node.key = key_field(kTag);
        break;
    }
    b.add(int_field(v.at(kId), kId), node);
    if (v.has(kDeps)) {
        if (!v.taken(kDeps))
            v.at(kDeps).asArray(); // fails: not an array.
        for (size_t k = 0; k < rec.deps.size(); ++k)
            b.dep(int_field(rec.deps[k], kDeps, k));
    }
}

/** Reads the document at `r`, one node at a time. */
Workload
readWorkload(json::Reader &&r)
{
    Workload wl;
    NodeRecord node;
    json::Fields doc(kDocKeys), graph(kGraphKeys);
    doc.readObject(r, [&](size_t dkey) {
        if (dkey != kDocGraphs)
            return false;
        ASTRA_USER_CHECK(!doc.has(kDocGraphs), "json: duplicate key 'graphs'");
        r.array([&] {
            const size_t g = wl.graphs.size();
            IdGraphBuilder b;
            graph.readObject(r, [&](size_t gkey) {
                if (gkey != kNodes)
                    return false;
                ASTRA_USER_CHECK(!graph.has(kNodes),
                                 "json: duplicate key 'nodes'");
                size_t i = 0;
                r.array([&] {
                    node.read(r);
                    addNode(wl, b, node, g, i++);
                });
                return true;
            });
            NpuId npu = static_cast<NpuId>(json::checkedInt(
                graph.at(kNpu), INT_MIN, INT_MAX,
                [&] { return detail::formatV("graphs[%zu].npu", g); }));
            ASTRA_USER_CHECK(graph.has(kNodes), "json: missing key 'nodes'");
            wl.graphs.push_back(std::move(b).finish(npu));
        });
        return true;
    });
    r.end();
    ASTRA_USER_CHECK(doc.getString(kDocSchema, "") == kSchema,
                     "ET document schema is '%s', expected '%s'",
                     std::string(doc.getString(kDocSchema, "<missing>"))
                         .c_str(),
                     kSchema);
    wl.name = doc.getString(kDocName, "trace");
    int64_t npus = doc.at(kDocNpus).asInt();
    ASTRA_USER_CHECK(doc.has(kDocGraphs), "json: missing key 'graphs'");
    ASTRA_USER_CHECK(static_cast<int64_t>(wl.graphs.size()) == npus,
                     "ET document: npus=%lld but %zu graphs",
                     static_cast<long long>(npus), wl.graphs.size());
    wl.graphs.shrink_to_fit();
    return wl;
}

/** Writes `wl` as the document's dump(2) and a newline, a node at a
 *  time. */
void
writeWorkload(const Workload &wl,
              const std::function<void(std::string_view)> &put)
{
    put("{\n  \"graphs\": ");
    std::string text;
    for (size_t g = 0; g < wl.graphs.size(); ++g) {
        const EtGraph &graph = wl.graphs[g];
        put(g == 0 ? "[\n    {\n      \"nodes\": "
                   : ",\n    {\n      \"nodes\": ");
        for (size_t i = 0; i < graph.nodes.size(); ++i) {
            text = i == 0 ? "[\n        " : ",\n        ";
            nodeToJson(wl, graph, i).dumpTo(text, 2, 4);
            put(text);
        }
        put(graph.nodes.empty() ? "[]" : "\n      ]");
        put(",\n      \"npu\": " + std::to_string(graph.npu) + "\n    }");
    }
    put(wl.graphs.empty() ? "[]" : "\n  ]");
    put(",\n  \"name\": " + json::Value(wl.name).dump() +
        ",\n  \"npus\": " + std::to_string(wl.graphs.size()) +
        ",\n  \"schema\": \"" + kSchema + "\"\n}\n");
}

} // namespace

void
saveWorkload(const std::string &path, const Workload &wl)
{
    OutputFile out(path, "execution trace");
    writeWorkload(wl, [&](std::string_view s) { out.put(s); });
    out.close();
}

Workload
loadWorkload(const std::string &path)
{
    return readWorkload(json::Reader::open(path));
}

std::string
workloadToText(const Workload &wl)
{
    std::string text;
    writeWorkload(wl, [&](std::string_view s) { text += s; });
    return text;
}

Workload
workloadFromText(std::string_view text)
{
    return readWorkload(json::Reader(text));
}

} // namespace astra
