/**
 * @file
 * Multi-tenant cluster benchmarks (docs/cluster.md). Emits
 * BENCH_cluster.json via scripts/bench.sh so the tenancy metrics are
 * tracked across PRs.
 *
 * Scenarios (flow backend — the congestion-resolving fidelity point):
 *  - single_vs_plain: one full-cluster job through the cluster layer
 *    vs the plain Simulator — records both sim times and asserts the
 *    byte-identity contract (identical = true is checked exactly).
 *  - contiguous_16x2: two 8-NPU all-reduce jobs on disjoint
 *    contiguous Ring(16) slices — no shared links, slowdown 1.0x.
 *  - spread_16x2: the same two jobs striped across the ring — every
 *    job-ring hop shares physical links with the other tenant, so
 *    max-min fair sharing produces a measurable slowdown (> 1.0x).
 *  - queued_mix_fifo / queued_mix_backfill: a 32-NPU pod running a
 *    4-job mix that cannot all fit at once — records makespan and
 *    mean queueing delay under both admission policies.
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "astra/simulator.h"
#include "cluster/cluster.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "common/units.h"
#include "topology/notation.h"
#include "workload/builders.h"

using namespace astra;
using namespace astra::cluster;

namespace {

struct Scenario
{
    std::string name;
    TimeNs simTimeNs = 0.0;        //!< makespan (deterministic).
    uint64_t events = 0;           //!< cluster events (deterministic).
    double interferenceSlowdown = 0.0; //!< mean across jobs.
    TimeNs queueingDelayNs = 0.0;  //!< mean across jobs.
    bool identical = true;         //!< single_vs_plain contract.
    double wallSeconds = 0.0;
};

JobSpec
allReduceJob(const std::string &name, int size, Bytes bytes,
             PlacementPolicy placement, TimeNs arrival = 0.0)
{
    JobSpec spec;
    spec.name = name;
    spec.size = size;
    spec.arrival = arrival;
    spec.placement = placement;
    spec.workloadDoc = json::parse(
        R"({"kind": "collective", "collective": "all-reduce",
            "bytes": )" +
        std::to_string(static_cast<long long>(bytes)) + "}");
    return spec;
}

Scenario
benchSingleVsPlain()
{
    Topology topo = parseTopology("Ring(2,250)_Switch(8,50)");
    SimulatorConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    Workload wl = buildHybridTransformer(
        topo, gpt3(), HybridOptions{/*mp=*/2, /*iterations=*/1,
                                    /*simLayers=*/4});

    auto start = std::chrono::steady_clock::now();
    Simulator plain(topo, cfg);
    Report plain_report = plain.run(wl);

    ClusterConfig ccfg;
    ccfg.backend = NetworkBackendKind::Flow;
    ccfg.isolatedBaselines = false;
    ClusterSimulator cluster(topo, ccfg);
    JobSpec spec;
    spec.name = "whole";
    spec.size = topo.npus();
    spec.cfg = cfg;
    spec.workload = std::move(wl);
    cluster.addJob(std::move(spec));
    ClusterReport report = cluster.run();

    Scenario s;
    s.name = "single_vs_plain";
    s.simTimeNs = report.aggregate.totalTime;
    s.events = report.aggregate.events;
    s.identical = report.aggregate.totalTime == plain_report.totalTime &&
                  report.aggregate.events == plain_report.events &&
                  report.aggregate.messages == plain_report.messages;
    s.wallSeconds = bench::wallSince(start);
    return s;
}

Scenario
benchPlacementPair(const char *name, PlacementPolicy placement)
{
    auto start = std::chrono::steady_clock::now();
    ClusterConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    ClusterSimulator cluster(parseTopology("Ring(16,100)"), cfg);
    cluster.addJob(allReduceJob("a", 8, 4.0 * kMB, placement));
    cluster.addJob(allReduceJob("b", 8, 4.0 * kMB, placement));
    ClusterReport report = cluster.run();

    Scenario s;
    s.name = name;
    s.simTimeNs = report.aggregate.totalTime;
    s.events = report.aggregate.events;
    s.interferenceSlowdown = report.aggregate.interferenceSlowdown;
    s.wallSeconds = bench::wallSince(start);
    return s;
}

Scenario
benchQueuedMix(const char *name, AdmissionPolicy admission)
{
    auto start = std::chrono::steady_clock::now();
    ClusterConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    cfg.admission = admission;
    cfg.isolatedBaselines = false;
    // Ring(4) x Switch(8) pod: two 16-NPU jobs fill it; an 8 and a
    // 32 queue behind them. Backfill lets the 8 slip past the
    // blocked 32.
    ClusterSimulator cluster(
        parseTopology("Ring(4,200)_Switch(8,50)"), cfg);
    cluster.addJob(allReduceJob("t0", 16, 8.0 * kMB,
                                PlacementPolicy::Contiguous));
    cluster.addJob(allReduceJob("t1", 16, 8.0 * kMB,
                                PlacementPolicy::Contiguous));
    cluster.addJob(allReduceJob("t2", 32, 8.0 * kMB,
                                PlacementPolicy::Contiguous, 1000.0));
    cluster.addJob(allReduceJob("t3", 8, 2.0 * kMB,
                                PlacementPolicy::Contiguous, 2000.0));
    ClusterReport report = cluster.run();

    Scenario s;
    s.name = name;
    s.simTimeNs = report.aggregate.totalTime;
    s.events = report.aggregate.events;
    s.queueingDelayNs = report.aggregate.queueingDelayNs;
    s.wallSeconds = bench::wallSince(start);
    return s;
}

std::string
jsonReport(const std::vector<Scenario> &scenarios)
{
    std::string out = "{\n  \"bench\": \"cluster_tenancy\",\n"
                      "  \"scenarios\": {\n";
    for (size_t i = 0; i < scenarios.size(); ++i) {
        const Scenario &s = scenarios[i];
        out += detail::formatV(
            "    \"%s\": {\"sim_time_ns\": %.3f, \"events\": %llu, "
            "\"interference_slowdown\": %.6f, "
            "\"queueing_delay_ns\": %.3f, \"identical\": %s, "
            "\"wall_seconds\": %.6f}%s\n",
            s.name.c_str(), s.simTimeNs,
            static_cast<unsigned long long>(s.events),
            s.interferenceSlowdown, s.queueingDelayNs,
            s.identical ? "true" : "false", s.wallSeconds,
            i + 1 < scenarios.size() ? "," : "");
    }
    out += "  }\n}\n";
    return out;
}

int
runBench(const CommandLine &cl)
{

    std::printf("multi-tenant cluster tenancy benchmarks "
                "(flow backend)\n\n");
    std::vector<Scenario> scenarios;
    scenarios.push_back(benchSingleVsPlain());
    scenarios.push_back(
        benchPlacementPair("contiguous_16x2",
                           PlacementPolicy::Contiguous));
    scenarios.push_back(
        benchPlacementPair("spread_16x2", PlacementPolicy::Spread));
    scenarios.push_back(
        benchQueuedMix("queued_mix_fifo", AdmissionPolicy::Fifo));
    scenarios.push_back(benchQueuedMix("queued_mix_backfill",
                                       AdmissionPolicy::Backfill));

    for (const Scenario &s : scenarios) {
        std::printf("%-20s %12.3f ms sim  %9llu events  "
                    "slowdown %.3fx  queue %.3f ms  %s  %.4f s wall\n",
                    s.name.c_str(), s.simTimeNs / kMs,
                    static_cast<unsigned long long>(s.events),
                    s.interferenceSlowdown, s.queueingDelayNs / kMs,
                    s.identical ? "identical" : "DIVERGED",
                    s.wallSeconds);
    }

    // The headline contracts, enforced here so a drift fails the
    // bench (and scripts/bench.sh --check) loudly.
    const Scenario &single = scenarios[0];
    const Scenario &contig = scenarios[1];
    const Scenario &spread = scenarios[2];
    if (!single.identical) {
        std::printf("\nFAIL: single-job cluster run diverged from the "
                    "plain Simulator\n");
        return 1;
    }
    if (contig.interferenceSlowdown != 1.0) {
        std::printf("\nFAIL: disjoint contiguous placements must show "
                    "no interference (got %.6fx)\n",
                    contig.interferenceSlowdown);
        return 1;
    }
    if (spread.interferenceSlowdown <= 1.0) {
        std::printf("\nFAIL: striped placements must contend "
                    "(got %.6fx)\n",
                    spread.interferenceSlowdown);
        return 1;
    }

    if (cl.has("json"))
        OutputFile::write(cl.getString("json", ""), "bench JSON",
                          jsonReport(scenarios));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(argc, argv, {.groups = {{bench::kJsonFlag}}}, runBench);
}
