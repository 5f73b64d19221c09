#include "sweep/spec.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "astra/config.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "fault/fault.h"
#include "workload/builders.h"

namespace astra {
namespace sweep {

namespace {

std::string
toLower(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

std::vector<json::Value>
expandRange(const json::Value &range)
{
    double from = range.at("from").asNumber();
    double to = range.at("to").asNumber();
    double step = range.at("step").asNumber();
    ASTRA_USER_CHECK(step > 0.0, "sweep axis range: step must be > 0");
    ASTRA_USER_CHECK(to >= from,
                     "sweep axis range: 'to' (%g) below 'from' (%g)", to,
                     from);
    // Grid points are from + i*step (multiplication, not accumulation:
    // no drift, and a step below the ULP of `from` cannot hang the
    // expansion). Inclusive endpoint with a tolerance sized only for
    // rounding — it must never admit a genuine extra point past 'to'.
    double count = std::floor((to - from) / step + 1e-9) + 1.0;
    ASTRA_USER_CHECK(count <= 1e6,
                     "sweep axis range: %g..%g step %g expands to %g "
                     "values (limit 1e6)",
                     from, to, step, count);
    std::vector<json::Value> values;
    for (size_t i = 0; i < static_cast<size_t>(count); ++i)
        values.push_back(json::Value(from + double(i) * step));
    return values;
}

Axis
axisFromJson(const json::Value &doc)
{
    Axis axis;
    ASTRA_USER_CHECK(doc.has("path") != doc.has("paths"),
                     "sweep axis: give exactly one of 'path' or "
                     "'paths'");
    if (doc.has("path")) {
        axis.paths.push_back(doc.at("path").asString());
    } else {
        for (const json::Value &p : doc.at("paths").asArray())
            axis.paths.push_back(p.asString());
    }
    ASTRA_USER_CHECK(!axis.paths.empty(), "sweep axis: empty 'paths'");
    for (const std::string &p : axis.paths)
        ASTRA_USER_CHECK(!p.empty(), "sweep axis: empty path");

    ASTRA_USER_CHECK(doc.has("values") != doc.has("range"),
                     "sweep axis '%s': give exactly one of 'values' or "
                     "'range'",
                     axis.pathLabel().c_str());
    if (doc.has("values"))
        axis.values = doc.at("values").asArray();
    else
        axis.values = expandRange(doc.at("range"));
    ASTRA_USER_CHECK(!axis.values.empty(), "sweep axis '%s': no values",
                     axis.pathLabel().c_str());

    if (doc.has("name")) {
        axis.name = doc.at("name").asString();
    } else {
        const std::string &first = axis.paths.front();
        size_t dot = first.rfind('.');
        axis.name =
            dot == std::string::npos ? first : first.substr(dot + 1);
    }

    if (doc.has("labels")) {
        for (const json::Value &l : doc.at("labels").asArray())
            axis.labels.push_back(l.asString());
        ASTRA_USER_CHECK(axis.labels.size() == axis.values.size(),
                         "sweep axis '%s': %zu labels for %zu values",
                         axis.pathLabel().c_str(), axis.labels.size(),
                         axis.values.size());
    }
    return axis;
}

ModelDesc
modelByName(const std::string &name)
{
    std::string key = toLower(name);
    if (key == "dlrm")
        return dlrm();
    if (key == "gpt3" || key == "gpt-3")
        return gpt3();
    if (key == "transformer1t" || key == "transformer-1t")
        return transformer1T();
    if (key == "moe1t" || key == "moe-1t")
        return moe1T();
    fatal("sweep workload: unknown model '%s' (dlrm | gpt3 | "
          "transformer1t | moe1t)",
          name.c_str());
}

} // namespace

Workload
workloadFromSpec(const Topology &topo, const json::Value &w,
                 const std::string &path)
{
    std::string kind = toLower(w.getString("kind", "hybrid"));
    int iterations = static_cast<int>(w.getInt("iterations", 1));

    if (kind == "collective") {
        json::checkKeys(w, path, {"kind", "collective", "bytes"});
        ASTRA_USER_CHECK(w.has("bytes"),
                         "sweep workload: collective needs 'bytes'");
        CollectiveType type =
            parseCollectiveType(w.getString("collective", "all-reduce"));
        return buildSingleCollective(topo, type,
                                     w.at("bytes").asNumber());
    }

    if (kind == "hybrid") {
        json::checkKeys(w, path,
                        {"kind", "model", "mp", "iterations", "sim_layers"});
        ASTRA_USER_CHECK(w.has("model"),
                         "sweep workload: hybrid needs 'model'");
        HybridOptions opts;
        opts.mp = static_cast<int>(w.getInt("mp", 1));
        opts.iterations = iterations;
        opts.simLayers = static_cast<int>(w.getInt("sim_layers", 0));
        return buildHybridTransformer(
            topo, modelByName(w.at("model").asString()), opts);
    }

    if (kind == "dlrm") {
        json::checkKeys(w, path, {"kind", "model", "iterations"});
        DlrmOptions opts;
        opts.iterations = iterations;
        ModelDesc model = w.has("model")
                              ? modelByName(w.at("model").asString())
                              : dlrm();
        return buildDlrm(topo, model, opts);
    }

    if (kind == "pipeline") {
        json::checkKeys(w, path,
                        {"kind", "model", "microbatches", "iterations"});
        ASTRA_USER_CHECK(w.has("model"),
                         "sweep workload: pipeline needs 'model'");
        PipelineOptions opts;
        opts.microbatches =
            static_cast<int>(w.getInt("microbatches", 8));
        opts.iterations = iterations;
        return buildPipelineParallel(
            topo, modelByName(w.at("model").asString()), opts);
    }

    if (kind == "moe") {
        json::checkKeys(w, path,
                        {"kind", "model", "iterations", "sim_layers",
                         "param_path"});
        MoEOptions opts;
        opts.iterations = iterations;
        opts.simLayers = static_cast<int>(w.getInt("sim_layers", 0));
        std::string param_path =
            toLower(w.getString("param_path", "network"));
        if (param_path == "network")
            opts.path = ParamPath::NetworkCollectives;
        else if (param_path == "fused")
            opts.path = ParamPath::FusedInSwitch;
        else
            fatal("sweep workload: unknown param_path '%s' (network | "
                  "fused)",
                  param_path.c_str());
        ModelDesc model = w.has("model")
                              ? modelByName(w.at("model").asString())
                              : moe1T();
        return buildMoEDisaggregated(topo, model, opts);
    }

    fatal("sweep workload: unknown kind '%s' (hybrid | dlrm | pipeline "
          "| moe | collective)",
          kind.c_str());
}

std::string
Axis::pathLabel() const
{
    std::string out;
    for (const std::string &p : paths) {
        if (!out.empty())
            out += '+';
        out += p;
    }
    return out;
}

std::string
Axis::valueString(size_t i) const
{
    ASTRA_ASSERT(i < values.size(), "axis value index out of range");
    if (!labels.empty())
        return labels[i];
    const json::Value &v = values[i];
    if (v.isString())
        return v.asString();
    return v.dump();
}

SweepSpec
SweepSpec::fromJson(const json::Value &doc)
{
    SweepSpec spec;
    spec.name_ = doc.getString("name", "sweep");

    std::string mode = toLower(doc.getString("mode", "cartesian"));
    if (mode == "cartesian")
        spec.mode_ = GridMode::Cartesian;
    else if (mode == "zip")
        spec.mode_ = GridMode::Zip;
    else
        fatal("sweep spec: unknown mode '%s' (cartesian | zip)",
              mode.c_str());

    ASTRA_USER_CHECK(doc.has("base"),
                     "sweep spec: missing required key 'base'");
    ASTRA_USER_CHECK(doc.at("base").isObject(),
                     "sweep spec: 'base' must be an object");
    spec.base_ = doc.at("base").clone();

    ASTRA_USER_CHECK(doc.has("axes") || doc.has("seeds"),
                     "sweep spec: missing required key 'axes'");
    if (doc.has("axes")) {
        for (const json::Value &a : doc.at("axes").asArray())
            spec.axes_.push_back(axisFromJson(a));
    }

    // `seeds: N` is shorthand for a trailing `fault.seed` axis with
    // values 1..N — every grid point is replicated under N independent
    // failure realizations, and studies report mean/p95 metrics over
    // that axis (docs/sweep.md). Trailing so it varies fastest in
    // cartesian mode: replications of one grid point stay adjacent.
    if (doc.has("seeds")) {
        int64_t n = doc.at("seeds").asInt();
        ASTRA_USER_CHECK(n >= 1,
                         "sweep spec: 'seeds' must be >= 1, got %lld",
                         static_cast<long long>(n));
        Axis axis;
        axis.paths = {"fault.seed"};
        axis.name = "seed";
        for (int64_t i = 1; i <= n; ++i)
            axis.values.push_back(json::Value(i));
        spec.axes_.push_back(std::move(axis));
    }
    ASTRA_USER_CHECK(!spec.axes_.empty(), "sweep spec: no axes");

    if (spec.mode_ == GridMode::Zip) {
        size_t len = spec.axes_.front().values.size();
        for (const Axis &axis : spec.axes_)
            ASTRA_USER_CHECK(axis.values.size() == len,
                             "sweep spec: zip mode needs equal-length "
                             "axes ('%s' has %zu values, expected %zu)",
                             axis.pathLabel().c_str(),
                             axis.values.size(), len);
    }
    return spec;
}

SweepSpec
SweepSpec::fromFile(const std::string &path)
{
    return fromJson(json::parseFile(path));
}

size_t
SweepSpec::configCount() const
{
    if (mode_ == GridMode::Zip)
        return axes_.front().values.size();
    size_t n = 1;
    for (const Axis &axis : axes_)
        n *= axis.values.size();
    return n;
}

std::vector<std::string>
SweepSpec::axisNames() const
{
    std::vector<std::string> names;
    names.reserve(axes_.size());
    for (const Axis &axis : axes_)
        names.push_back(axis.name);
    return names;
}

SweepConfig
SweepSpec::config(size_t index) const
{
    ASTRA_USER_CHECK(index < configCount(),
                     "sweep config index %zu out of range (%zu configs)",
                     index, configCount());

    // Per-axis value indices: lockstep for zip; mixed-radix with the
    // first axis slowest for cartesian (so the expansion order reads
    // like nested loops in axis order).
    std::vector<size_t> pick(axes_.size(), index);
    if (mode_ == GridMode::Cartesian) {
        size_t rest = 1;
        for (const Axis &axis : axes_)
            rest *= axis.values.size();
        size_t rem = index;
        for (size_t a = 0; a < axes_.size(); ++a) {
            rest /= axes_[a].values.size();
            pick[a] = rem / rest;
            rem %= rest;
        }
    }

    SweepConfig cfg;
    cfg.index = index;
    cfg.doc = base_.clone();
    for (size_t a = 0; a < axes_.size(); ++a) {
        const Axis &axis = axes_[a];
        for (const std::string &path : axis.paths)
            applyOverride(cfg.doc, path, axis.values[pick[a]]);
        std::string value = axis.valueString(pick[a]);
        if (!cfg.label.empty())
            cfg.label += ' ';
        cfg.label += axis.name + '=' + value;
        cfg.axisValues.push_back(std::move(value));
    }
    cfg.hash = configHash(cfg.doc);
    return cfg;
}

void
applyOverride(json::Value &doc, const std::string &path,
              const json::Value &value)
{
    json::Value *node = &doc;
    size_t start = 0;
    for (;;) {
        size_t dot = path.find('.', start);
        std::string key = path.substr(
            start, dot == std::string::npos ? std::string::npos
                                            : dot - start);
        ASTRA_USER_CHECK(!key.empty(),
                         "sweep axis path '%s': empty segment",
                         path.c_str());
        bool numeric = key.find_first_not_of("0123456789") ==
                       std::string::npos;
        json::Value *child;
        if (node->isArray() && numeric) {
            // All-digit segments index existing array elements
            // ("cluster.jobs.0.placement"); arrays are never grown.
            json::Array &arr = node->mutableArray();
            size_t index = static_cast<size_t>(
                std::strtoull(key.c_str(), nullptr, 10));
            ASTRA_USER_CHECK(index < arr.size(),
                             "sweep axis path '%s': index %zu out of "
                             "range (array has %zu elements)",
                             path.c_str(), index, arr.size());
            child = &arr[index];
        } else {
            ASTRA_USER_CHECK(node->isObject() || node->isNull(),
                             "sweep axis path '%s': segment '%s' "
                             "traverses a non-object value",
                             path.c_str(), key.c_str());
            child = &node->mutableObject()[key];
        }
        if (dot == std::string::npos) {
            *child = value.clone();
            return;
        }
        node = child;
        start = dot + 1;
    }
}

uint64_t
configHash(const json::Value &doc)
{
    // FNV-1a over the compact serialization. json::Object keys are
    // ordered (std::map) and numbers print with %.17g, so equal
    // documents always hash equal and any value change reaches the
    // hash.
    std::string text = doc.dump();
    uint64_t h = 14695981039346656037ULL ^ (kSpecSchemaVersion * 31);
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
configHashString(uint64_t hash)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

MaterializedConfig
materializeConfig(const json::Value &doc)
{
    // Reject unknown top-level keys with a path-qualified error: a
    // typoed key ("falut", "backund") would otherwise be silently
    // ignored and the run would report healthy default behavior.
    json::checkKeys(doc, "config",
                    {"topology", "backend", "system", "workload", "fault",
                     "trace", "telemetry"});
    RunBlocks run = runBlocksFromJson(doc);
    SimulatorConfig cfg = simulatorConfigFromJson(
        doc.has("system") ? doc.at("system") : json::Value(json::Object{}),
        run.cfg.backend);
    static_cast<RunConfig &>(cfg) = std::move(run.cfg);

    ASTRA_USER_CHECK(doc.has("workload"),
                     "sweep config: missing 'workload'");
    Workload wl = workloadFromSpec(run.topo, doc.at("workload"));
    return MaterializedConfig{std::move(run.topo), std::move(cfg),
                              std::move(wl)};
}

void
writeSampleSpec(const std::string &path)
{
    OutputFile::write(path, "sample file", json::parse(R"json({
      "name": "hiermem-sample",
      "mode": "cartesian",
      "base": {
        "topology": "Switch(16,300,300)_Switch(16,25,700)",
        "backend": "analytical",
        "system": {
          "peak_tflops": 2048,
          "local_memory": {"bandwidth_gbps": 4096},
          "remote_memory": {"kind": "pooled"}
        },
        "workload": {"kind": "moe", "model": "moe1t",
                     "param_path": "fused"}
      },
      "axes": [
        {"path": "system.remote_memory.in_node_fabric_bw_gbps",
         "name": "fabric_bw", "values": [256, 512, 1024]},
        {"path": "system.remote_memory.remote_group_bw_gbps",
         "name": "group_bw",
         "range": {"from": 100, "to": 500, "step": 200}}
      ]
    })json").dump(2) + "\n");
}

} // namespace sweep
} // namespace astra
