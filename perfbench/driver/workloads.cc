#include "workloads.h"

#include "common/logging.h"
#include "sweep/spec.h"

namespace perfbench {

using astra::json::Array;
using astra::json::Object;
using astra::json::Value;

namespace {

/** splitmix64: a seed-derived stream of input perturbations. */
class SeedStream
{
  public:
    explicit SeedStream(uint64_t seed)
        : state_(seed), perturb_(seed != kDefaultSeed)
    {
    }

    /** Uniform integer in [-span, span]; always 0 for the default
     *  seed, whose inputs are the recorded ones. */
    int
    offset(int span)
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        return perturb_ ? int(z % uint64_t(2 * span + 1)) - span : 0;
    }

  private:
    uint64_t state_;
    bool perturb_;
};

Value
axis(const char *path, Array values)
{
    Object a;
    a["path"] = Value(path);
    a["values"] = Value(std::move(values));
    return Value(std::move(a));
}

Value
specOf(const char *name, Value base, Array axes)
{
    Object doc;
    doc["name"] = Value(name);
    doc["base"] = std::move(base);
    doc["axes"] = Value(std::move(axes));
    return Value(std::move(doc));
}

/**
 * Table V HierMem grid: MoE-1T (4 simulated layers) on 16 nodes x 16
 * GPUs with pooled remote memory; param_path x in-node fabric
 * bandwidth (the GPU-side out-node bandwidth tracks it, as in the
 * paper) x remote-group bandwidth = 16 rows. A non-default seed moves
 * each bandwidth value by up to +-8%.
 */
Value
moeSweep(uint64_t seed)
{
    Value base = astra::json::parse(R"json({
      "topology": "Switch(16,300,300)_Switch(16,25,700)",
      "backend": "analytical",
      "system": {
        "peak_tflops": 2048,
        "local_memory": {"bandwidth_gbps": 4096},
        "remote_memory": {"kind": "pooled"}
      },
      "workload": {"kind": "moe", "model": "moe1t", "sim_layers": 4,
                   "param_path": "fused"}
    })json");
    SeedStream rng(seed);
    auto jitter = [&](int value) {
        return Value(value + value * rng.offset(8) / 100);
    };
    Array fabric, group;
    for (int v : {256, 512, 1024, 2048})
        fabric.push_back(jitter(v));
    for (int v : {100, 500})
        group.push_back(jitter(v));

    Object fabric_axis;
    fabric_axis["paths"] = Value(
        Array{Value("system.remote_memory.in_node_fabric_bw_gbps"),
              Value("system.remote_memory.gpu_side_bw_gbps")});
    fabric_axis["name"] = Value("fabric");
    fabric_axis["values"] = Value(std::move(fabric));
    Object group_axis;
    group_axis["path"] =
        Value("system.remote_memory.remote_group_bw_gbps");
    group_axis["name"] = Value("group");
    group_axis["values"] = Value(std::move(group));

    return specOf("moe_sweep", std::move(base),
                  Array{axis("workload.param_path",
                             Array{Value("fused"), Value("network")}),
                        Value(std::move(fabric_axis)),
                        Value(std::move(group_axis))});
}

/** One 1 MiB all-reduce on 4096 NPUs, flow backend; a non-default
 *  seed moves the size by up to +-16 pages of 4 KiB. */
Value
flowAllReduce(uint64_t seed)
{
    Value base = astra::json::parse(R"json({
      "topology": "Ring(8,200,300)_Switch(512,50,500)",
      "backend": "flow",
      "workload": {"kind": "collective", "collective": "all-reduce",
                   "bytes": 1048576}
    })json");
    SeedStream rng(seed);
    int bytes = 1048576 + 4096 * rng.offset(16);
    return specOf("flow_allreduce_4096", std::move(base),
                  Array{axis("workload.bytes", Array{Value(bytes)})});
}

/** GPipe GPT-3 over a 64-stage ring, 256 micro-batches x 8
 *  iterations, full-detail tracing; a non-default seed moves the
 *  micro-batch count by up to +-2. */
Value
pipelineTraced(uint64_t seed, const std::string &trace_file)
{
    Value base = astra::json::parse(R"json({
      "topology": "Ring(64,200,300)",
      "backend": "analytical",
      "workload": {"kind": "pipeline", "model": "gpt3",
                   "microbatches": 256, "iterations": 8}
    })json");
    astra::sweep::applyOverride(base, "trace.file", Value(trace_file));
    astra::sweep::applyOverride(base, "trace.detail", Value("full"));
    SeedStream rng(seed);
    int microbatches = 256 + rng.offset(2);
    return specOf(
        "pipeline_traced", std::move(base),
        Array{axis("workload.microbatches", Array{Value(microbatches)})});
}

} // namespace

Value
workloadSpec(const std::string &name, uint64_t seed,
             const std::string &trace_file)
{
    if (name == "moe_sweep")
        return moeSweep(seed);
    if (name == "flow_allreduce_4096")
        return flowAllReduce(seed);
    if (name == "pipeline_traced")
        return pipelineTraced(seed, trace_file);
    astra::fatal("unknown workload '%s'", name.c_str());
}

std::vector<size_t>
gateRows(const std::string &name)
{
    // moe_sweep: one fused and one network-collective row (the two
    // parameter paths use the memory and collective layers
    // differently); the single-sim workloads re-run their one row.
    if (name == "moe_sweep")
        return {0, 15};
    return {0};
}

} // namespace perfbench
