/**
 * @file
 * Sweep-engine scaling benchmark: the acceptance workload for the
 * parallel design-space exploration subsystem (src/sweep/).
 *
 * Runs a 64-configuration hierarchical-memory sweep (8 fabric x 8
 * group bandwidths, the Table V / §V-B design space on a coarsened
 * MoE-1T) through the batch runner at 1, 2 and 8 threads, and records
 * configs/sec per thread count in BENCH_sweep.json (via
 * scripts/bench.sh) so sweep throughput is tracked across PRs. The
 * 8-thread speedup is reported against the 1-thread run; on hosts with
 * fewer cores the speedup degenerates toward 1x and the JSON records
 * the core count so the number can be judged. That every thread count
 * renders the same bytes is the engine's determinism guarantee, pinned
 * by `BatchRunner.DeterministicAcrossThreadCounts`
 * (tests/sweep/test_runner.cc).
 */
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "sweep/runner.h"

using namespace astra;
using namespace astra::sweep;

namespace {

constexpr size_t kGridSide = 8; // 8x8 = 64 configurations.

json::Value
specDoc()
{
    // Table V system; sim_layers coarsens MoE-1T so one configuration
    // simulates in a fraction of a second and the 64-point grid stays
    // a benchmark, not a coffee break (aggregate ratios preserved).
    json::Value base = json::parse(R"json({
      "topology": "Switch(16,300,300)_Switch(16,25,700)",
      "backend": "analytical",
      "system": {
        "peak_tflops": 2048,
        "local_memory": {"bandwidth_gbps": 4096},
        "remote_memory": {"kind": "pooled"}
      },
      "workload": {"kind": "moe", "model": "moe1t",
                   "param_path": "fused", "sim_layers": 4}
    })json");

    json::Array fabric_values, group_values;
    for (size_t i = 0; i < kGridSide; ++i) {
        fabric_values.push_back(
            json::Value(256.0 + 256.0 * double(i)));
        group_values.push_back(json::Value(100.0 + 50.0 * double(i)));
    }
    json::Object fabric_axis;
    fabric_axis["path"] =
        json::Value("system.remote_memory.in_node_fabric_bw_gbps");
    fabric_axis["name"] = json::Value("fabric");
    fabric_axis["values"] = json::Value(std::move(fabric_values));
    json::Object group_axis;
    group_axis["path"] =
        json::Value("system.remote_memory.remote_group_bw_gbps");
    group_axis["name"] = json::Value("group");
    group_axis["values"] = json::Value(std::move(group_values));

    json::Object doc;
    doc["name"] = json::Value("sweep-throughput");
    doc["mode"] = json::Value("cartesian");
    doc["base"] = std::move(base);
    doc["axes"] = json::Value(json::Array{
        json::Value(std::move(fabric_axis)),
        json::Value(std::move(group_axis))});
    return json::Value(std::move(doc));
}

struct Sample
{
    int threads = 0;
    double seconds = 0.0;

    double
    configsPerSec() const
    {
        return seconds > 0.0 ? double(kGridSide * kGridSide) / seconds
                             : 0.0;
    }
};

int
runBench(const CommandLine &cl)
{

    SweepSpec spec = SweepSpec::fromJson(specDoc());
    std::printf("sweep-engine throughput: %zu-config hierarchical-"
                "memory sweep (host has %u hardware threads)\n\n",
                spec.configCount(), std::thread::hardware_concurrency());

    std::vector<Sample> samples;
    for (int threads : {1, 2, 8}) {
        BatchOptions opts;
        opts.threads = threads;
        Sample s;
        s.threads = threads;
        s.seconds = runBatch(spec, opts).wallSeconds;
        std::printf("%d thread(s): %6.2fs  %6.2f configs/s\n", threads,
                    s.seconds, s.configsPerSec());
        samples.push_back(s);
    }

    double speedup8 = samples.front().seconds > 0.0
                          ? samples.front().seconds /
                                samples.back().seconds
                          : 0.0;
    std::printf("\n8-thread speedup over 1 thread: %.2fx\n", speedup8);

    if (cl.has("json")) {
        std::string out = detail::formatV(
            "{\n  \"bench\": \"sweep\",\n"
            "  \"hardware_threads\": %u,\n"
            "  \"results\": {\n",
            std::thread::hardware_concurrency());
        for (size_t i = 0; i < samples.size(); ++i) {
            const Sample &s = samples[i];
            out += detail::formatV(
                "    \"threads_%d\": {\"seconds\": %.3f, "
                "\"configs_per_sec\": %.2f}%s\n",
                s.threads, s.seconds, s.configsPerSec(),
                i + 1 < samples.size() ? "," : "");
        }
        out += detail::formatV("  },\n  \"speedup_8_over_1\": %.2f\n}\n",
                               speedup8);
        OutputFile::write(cl.getString("json", ""), "bench JSON", out);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(argc, argv, {.groups = {{bench::kJsonFlag}}}, runBench);
}
