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

/** Appends document node `nodes[i]` of graph `g` to `b`. Integer
 *  fields are range-checked before narrowing; an error names the
 *  field's path in the document. */
void
addNodeFromJson(Workload &wl, IdGraphBuilder &b, const json::Value &v,
                size_t g, size_t i)
{
    // The path "graphs[g].nodes[i].<key>[k].<sub>" is formatted only
    // for an error.
    auto field = [&](const json::Value &x, int64_t lo, int64_t hi,
                     const char *key, size_t k = kNoIndex,
                     const char *sub = nullptr) {
        return json::checkedInt(x, lo, hi, [&] {
            std::string path =
                detail::formatV("graphs[%zu].nodes[%zu].%s", g, i, key);
            if (k != kNoIndex)
                path += detail::formatV("[%zu]", k);
            if (sub)
                path += std::string(".") + sub;
            return path;
        });
    };
    auto int_field = [&](const json::Value &x, const char *key,
                         size_t k = kNoIndex, const char *sub = nullptr) {
        return static_cast<int>(field(x, INT_MIN, INT_MAX, key, k, sub));
    };
    // Keys and tags must round-trip through the writer.
    auto key_field = [&](const char *key) {
        return v.has(key) ? static_cast<uint64_t>(field(
                                v.at(key), 0, json::kMaxExactInt, key))
                          : 0;
    };

    EtNode node;
    node.type = parseNodeType(v.at("type").asString());
    node.name = wl.internName(v.getString("name", ""));
    switch (node.type) {
      case NodeType::Compute:
        node.flops = v.getNumber("flops", 0.0);
        node.bytes = v.getNumber("tensor_bytes", 0.0);
        break;
      case NodeType::Memory:
        node.memOp = v.getString("op", "load") == "store" ? MemOp::Store
                                                          : MemOp::Load;
        node.location = v.getString("location", "local") == "remote"
                            ? MemLocation::Remote
                            : MemLocation::Local;
        node.bytes = v.getNumber("bytes", 0.0);
        node.fused = v.getBool("fused", false);
        break;
      case NodeType::CommColl: {
        node.coll = parseCollectiveType(v.at("coll").asString());
        node.bytes = v.getNumber("bytes", 0.0);
        node.key = key_field("key");
        if (v.has("groups")) {
            std::vector<GroupDim> groups;
            const json::Array &list = v.at("groups").asArray();
            for (size_t k = 0; k < list.size(); ++k) {
                const json::Value &gv = list[k];
                auto group_field = [&](const char *key, int dflt) {
                    return gv.has(key) ? int_field(gv.at(key), "groups", k,
                                                   key)
                                       : dflt;
                };
                GroupDim gd;
                gd.dim = int_field(gv.at("dim"), "groups", k, "dim");
                gd.size = group_field("size", 0);
                gd.stride = group_field("stride", 1);
                groups.push_back(gd);
            }
            node.groups = wl.internGroups(groups);
        }
        break;
      }
      case NodeType::CommSend:
        node.peer = int_field(v.at("peer"), "peer");
        node.bytes = v.getNumber("bytes", 0.0);
        node.key = key_field("tag");
        break;
      case NodeType::CommRecv:
        node.peer = int_field(v.at("peer"), "peer");
        node.key = key_field("tag");
        break;
    }
    b.add(int_field(v.at("id"), "id"), node);
    if (v.has("deps")) {
        const json::Array &deps = v.at("deps").asArray();
        for (size_t k = 0; k < deps.size(); ++k)
            b.dep(int_field(deps[k], "deps", k));
    }
}

/** Reads the document at `r`, one node at a time. */
Workload
readWorkload(json::Reader &&r)
{
    Workload wl;
    json::Value doc{json::Object()}; // every key but "graphs".
    bool have_graphs = false;
    r.object([&](const std::string &key) {
        if (key != "graphs") {
            doc.mutableObject()[key] = r.value();
            return;
        }
        ASTRA_USER_CHECK(!have_graphs, "json: duplicate key 'graphs'");
        have_graphs = true;
        r.array([&] {
            const size_t g = wl.graphs.size();
            IdGraphBuilder b;
            json::Object gv; // every key but "nodes".
            bool have_nodes = false;
            r.object([&](const std::string &gkey) {
                if (gkey != "nodes") {
                    gv[gkey] = r.value();
                    return;
                }
                ASTRA_USER_CHECK(!have_nodes, "json: duplicate key 'nodes'");
                have_nodes = true;
                size_t i = 0;
                r.array([&] { addNodeFromJson(wl, b, r.value(), g, i++); });
            });
            NpuId npu = static_cast<NpuId>(json::checkedInt(
                json::Value(std::move(gv)).at("npu"), INT_MIN, INT_MAX,
                [&] { return detail::formatV("graphs[%zu].npu", g); }));
            ASTRA_USER_CHECK(have_nodes, "json: missing key 'nodes'");
            wl.graphs.push_back(std::move(b).finish(npu));
        });
    });
    r.end();
    ASTRA_USER_CHECK(doc.getString("schema", "") == kSchema,
                     "ET document schema is '%s', expected '%s' (use the "
                     "converter for external trace formats)",
                     doc.getString("schema", "<missing>").c_str(),
                     kSchema);
    wl.name = doc.getString("name", "trace");
    int64_t npus = doc.at("npus").asInt();
    ASTRA_USER_CHECK(have_graphs, "json: missing key 'graphs'");
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
