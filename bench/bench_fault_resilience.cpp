/**
 * @file
 * Failure-resilience benchmarks (docs/fault.md). Emits
 * BENCH_fault.json via scripts/bench.sh so the fault metrics are
 * tracked across PRs.
 *
 * Scenarios:
 *  - zero_fault_identity: a two-tenant cluster run with an *empty*
 *    fault scenario attached vs the same run without one — asserts
 *    the bit-identity contract (the fault machinery must be a
 *    zero-cost no-op when nothing is injected).
 *  - degraded_incast_flow / degraded_incast_packet: a 7-to-1 incast
 *    with one sender's uplink degraded to 10% — the two
 *    congestion-resolving backends must agree within tolerance
 *    (the analytical backend is excluded by design: it coarsens
 *    per-link faults to whole ports, see docs/fault.md).
 *  - goodput_mtbf*_ckpt*: a checkpoint-interval x NPU-MTBF grid on
 *    one long all-reduce job — the classic Young/Daly trade-off:
 *    checkpoint too rarely and failures roll back large lost-work
 *    windows; too often and the checkpoint cost itself eats the
 *    goodput. All metrics are deterministic and exact-gated.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "common/units.h"
#include "event/event_queue.h"
#include "fault/injector.h"
#include "network/detailed/packet_network.h"
#include "network/flow/flow_network.h"
#include "topology/notation.h"

using namespace astra;
using namespace astra::cluster;

namespace {

struct Scenario
{
    std::string name;
    TimeNs simTimeNs = 0.0;      //!< makespan (deterministic).
    uint64_t events = 0;         //!< events executed (deterministic).
    uint64_t numFaults = 0;      //!< fault events fired.
    TimeNs lostWorkNs = 0.0;     //!< rolled-back work.
    TimeNs recoveryNs = 0.0;     //!< failure-to-restart downtime.
    double goodput = 0.0;        //!< useful fraction of wall time.
    bool identical = true;       //!< zero_fault_identity contract.
    double wallSeconds = 0.0;
};

JobSpec
allReduceJob(const std::string &name, int size, Bytes bytes)
{
    JobSpec spec;
    spec.name = name;
    spec.size = size;
    spec.workloadDoc = json::parse(
        R"({"kind": "collective", "collective": "all-reduce",
            "bytes": )" +
        std::to_string(static_cast<long long>(bytes)) + "}");
    return spec;
}

/** Multi-iteration transformer: many workload nodes, so a checkpoint
 *  cut captures real progress and rollback re-executes only the tail
 *  (a single-collective job would always restart from scratch). */
JobSpec
trainingJob(const std::string &name, int size)
{
    JobSpec spec;
    spec.name = name;
    spec.size = size;
    spec.workloadDoc = json::parse(
        R"({"kind": "hybrid", "model": "gpt3", "sim_layers": 2,
            "iterations": 2})");
    return spec;
}

Scenario
benchZeroFaultIdentity()
{
    auto run = [](bool with_empty_fault) {
        ClusterConfig cfg;
        cfg.backend = NetworkBackendKind::Flow;
        if (with_empty_fault)
            cfg.fault = fault::FaultConfig{};
        ClusterSimulator cluster(parseTopology("Ring(16,100)"), cfg);
        cluster.addJob(allReduceJob("a", 8, 4.0 * kMB));
        cluster.addJob(allReduceJob("b", 8, 4.0 * kMB));
        return cluster.run();
    };

    auto start = std::chrono::steady_clock::now();
    ClusterReport base = run(false);
    ClusterReport with = run(true);

    Scenario s;
    s.name = "zero_fault_identity";
    s.simTimeNs = with.aggregate.totalTime;
    s.events = with.aggregate.events;
    s.identical = with.aggregate.totalTime == base.aggregate.totalTime &&
                  with.aggregate.events == base.aggregate.events &&
                  with.aggregate.messages == base.aggregate.messages &&
                  with.jobsCsv() == base.jobsCsv();
    s.wallSeconds = bench::wallSince(start);
    return s;
}

/** 7-to-1 incast with sender 1's uplink degraded to 10%: the
 *  degraded sender, not the shared receiver port, bounds completion. */
template <typename Net>
Scenario
benchDegradedIncast(const char *name)
{
    Topology topo = parseTopology("Switch(8,100)");
    fault::FaultConfig cfg;
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::LinkDegrade;
    ev.src = 1;
    ev.dst = 0;
    ev.dim = 0;
    ev.scale = 0.1;
    cfg.schedule.push_back(ev);

    auto start = std::chrono::steady_clock::now();
    EventQueue eq;
    Net net(eq, topo);
    fault::FaultHooks hooks;
    hooks.net = &net;
    fault::FaultInjector injector(eq, topo, cfg, std::move(hooks));
    injector.start();
    TimeNs last = 0.0;
    eq.schedule(1.0, [&] {
        for (NpuId src = 1; src < 8; ++src) {
            SendHandlers h;
            h.onDelivered = [&last, &eq] {
                last = std::max(last, eq.now());
            };
            net.simSend(src, 0, 4.0 * kMB, kAutoRoute, kNoTag,
                        std::move(h));
        }
    });
    eq.run();

    Scenario s;
    s.name = name;
    s.simTimeNs = last;
    s.events = eq.executedEvents();
    s.numFaults = injector.firedCount();
    s.wallSeconds = bench::wallSince(start);
    return s;
}

Scenario
benchGoodputPoint(const std::string &name, TimeNs npu_mtbf,
                  TimeNs ckpt_interval)
{
    auto start = std::chrono::steady_clock::now();
    ClusterConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    fault::FaultConfig f;
    f.seed = 5;
    f.horizonNs = 300000.0 * kMs;
    f.npuMtbfNs = npu_mtbf;
    f.npuMttrNs = 500.0 * kMs;
    cfg.fault = f;
    cfg.defaultCheckpoint.intervalNs = ckpt_interval;
    cfg.defaultCheckpoint.costNs = 50.0 * kMs;
    cfg.defaultCheckpoint.restartDelayNs = 100.0 * kMs;

    ClusterSimulator cluster(parseTopology("Ring(8,100)"), cfg);
    cluster.addJob(trainingJob("train", 8));
    ClusterReport report = cluster.run();

    const JobResult &job = report.jobs[0];
    if (std::getenv("BENCH_FAULT_DEBUG") != nullptr)
        std::printf("DEBUG %s\n%s\n", name.c_str(),
                    report.jobsCsv().c_str());
    Scenario s;
    s.name = name;
    s.simTimeNs = report.aggregate.totalTime;
    s.events = report.aggregate.events;
    s.numFaults = job.report.numFaults;
    s.lostWorkNs = job.report.lostWorkNs;
    s.recoveryNs = job.report.recoveryTimeNs;
    s.goodput = job.report.goodput;
    s.identical = !job.failed;
    s.wallSeconds = bench::wallSince(start);
    return s;
}

std::string
jsonReport(const std::vector<Scenario> &scenarios)
{
    std::string out = "{\n  \"bench\": \"fault_resilience\",\n"
                      "  \"scenarios\": {\n";
    for (size_t i = 0; i < scenarios.size(); ++i) {
        const Scenario &s = scenarios[i];
        out += detail::formatV(
            "    \"%s\": {\"sim_time_ns\": %.3f, \"events\": %llu, "
            "\"num_faults\": %llu, \"lost_work_ns\": %.3f, "
            "\"recovery_time_ns\": %.3f, \"goodput\": %.6f, "
            "\"identical\": %s, \"wall_seconds\": %.6f}%s\n",
            s.name.c_str(), s.simTimeNs,
            static_cast<unsigned long long>(s.events),
            static_cast<unsigned long long>(s.numFaults),
            s.lostWorkNs, s.recoveryNs, s.goodput,
            s.identical ? "true" : "false", s.wallSeconds,
            i + 1 < scenarios.size() ? "," : "");
    }
    out += "  }\n}\n";
    return out;
}

int
runBench(const CommandLine &cl)
{
    std::string only = cl.getString("only", "");

    std::printf("failure-resilience benchmarks (flow backend)\n\n");
    std::vector<Scenario> scenarios;
    auto wanted = [&only](const char *name) {
        return only.empty() ||
               std::strstr(name, only.c_str()) != nullptr;
    };
    if (wanted("zero_fault_identity"))
        scenarios.push_back(benchZeroFaultIdentity());
    if (wanted("degraded_incast_flow"))
        scenarios.push_back(
            benchDegradedIncast<FlowNetwork>("degraded_incast_flow"));
    if (wanted("degraded_incast_packet"))
        scenarios.push_back(benchDegradedIncast<PacketNetwork>(
            "degraded_incast_packet"));

    // Checkpoint-interval x MTBF goodput grid (Young/Daly trade-off).
    const TimeNs mtbfs[] = {40000.0 * kMs, 160000.0 * kMs};
    const char *mtbf_names[] = {"mtbf40s", "mtbf160s"};
    const TimeNs intervals[] = {0.0, 1000.0 * kMs, 5000.0 * kMs};
    const char *interval_names[] = {"ckptnone", "ckpt1s",
                                    "ckpt5s"};
    for (size_t m = 0; m < 2; ++m)
        for (size_t c = 0; c < 3; ++c) {
            std::string name = std::string("goodput_") +
                               mtbf_names[m] + "_" +
                               interval_names[c];
            if (wanted(name.c_str()))
                scenarios.push_back(benchGoodputPoint(
                    name, mtbfs[m], intervals[c]));
        }

    for (const Scenario &s : scenarios) {
        std::printf("%-28s %12.3f ms sim  %9llu events  "
                    "faults %3llu  lost %8.1f us  goodput %.3f  "
                    "%.4f s wall\n",
                    s.name.c_str(), s.simTimeNs / kMs,
                    static_cast<unsigned long long>(s.events),
                    static_cast<unsigned long long>(s.numFaults),
                    s.lostWorkNs / kUs, s.goodput, s.wallSeconds);
    }

    if (!only.empty()) // debugging subset: no table, no contracts.
        return 0;

    // Goodput table: MTBF rows x checkpoint-interval columns.
    std::printf("\ngoodput (rows: NPU MTBF, cols: checkpoint "
                "interval)\n%-12s", "");
    for (size_t c = 0; c < 3; ++c)
        std::printf("%12s", interval_names[c]);
    std::printf("\n");
    for (size_t m = 0; m < 2; ++m) {
        std::printf("%-12s", mtbf_names[m]);
        for (size_t c = 0; c < 3; ++c)
            std::printf("%12.3f",
                        scenarios[3 + m * 3 + c].goodput);
        std::printf("\n");
    }

    // Contracts, enforced here so a drift fails bench.sh --check
    // loudly.
    if (!scenarios[0].identical) {
        std::printf("\nFAIL: empty fault scenario diverged from the "
                    "fault-free run\n");
        return 1;
    }
    double ratio =
        scenarios[1].simTimeNs / scenarios[2].simTimeNs;
    if (ratio < 0.85 || ratio > 1.15) {
        std::printf("\nFAIL: flow/packet degraded-incast disagreement "
                    "(ratio %.4f outside [0.85, 1.15])\n",
                    ratio);
        return 1;
    }
    for (size_t i = 3; i < scenarios.size(); ++i) {
        const Scenario &s = scenarios[i];
        if (!s.identical || s.goodput <= 0.0 || s.goodput > 1.0) {
            std::printf("\nFAIL: %s: job failed or goodput %.6f "
                        "out of range\n",
                        s.name.c_str(), s.goodput);
            return 1;
        }
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
    CliSpec spec{.groups = {{bench::kJsonFlag,
                             {"only", FlagKind::Value, "name filter"}}}};
    return runCli(argc, argv, spec, runBench);
}
