/**
 * @file
 * Multi-tenant cluster simulation tests (docs/cluster.md):
 *
 *  - A single full-cluster job replays a plain Simulator run
 *    byte-identically (sim time, events, deliveries, breakdowns) on
 *    all network backends — the rank view and co-execution machinery
 *    add zero events and zero timing.
 *  - Two jobs on disjoint contiguous slices each match their
 *    isolated baselines exactly (no shared links, no interference).
 *  - The same two jobs striped across a shared ring slow each other
 *    down under the congestion-resolving flow backend (slowdown >
 *    1.0) and are invisible to the analytical backend (documented
 *    fidelity caveat).
 *  - FIFO vs backfill admission and priority ordering.
 *  - The tenancy scenarios' committed results (single GPT-3 job, the
 *    4 MB contiguous/spread pair, the queued 4-job mix), to the
 *    printed precision of the bench ledger they came from.
 */
#include <gtest/gtest.h>

#include "astra/simulator.h"
#include "cluster/cluster.h"
#include "cluster/config.h"
#include "common/logging.h"
#include "topology/notation.h"
#include "workload/builders.h"

namespace astra {
namespace cluster {
namespace {

/**
 * Small mixed workload touching every node type (compute, local
 * memory, collective, p2p ring) with payloads the packet backend can
 * chew through quickly — the single-job equivalence runs it on all
 * four backends.
 */
Workload
makeMixedWorkload(const Topology &topo)
{
    Workload wl;
    wl.name = "mixed";
    int npus = topo.npus();
    for (NpuId n = 0; n < npus; ++n) {
        EtGraph g;
        g.npu = n;
        uint32_t compute = g.add(EtNode::compute(1e9, 1e6));
        uint32_t mem = g.add(
            EtNode::memory(MemLocation::Local, MemOp::Load, 1e6), {compute});
        uint32_t coll = g.add(
            EtNode::collective(CollectiveType::AllReduce, 1 << 20, 7),
            {mem});
        uint32_t send = g.add(EtNode::send((n + 1) % npus, 64 << 10,
                                           100 + static_cast<uint64_t>(n)),
                              {coll});
        uint32_t recv = g.add(
            EtNode::recv((n - 1 + npus) % npus,
                         100 + static_cast<uint64_t>((n - 1 + npus) % npus)),
            {coll});
        g.add(EtNode::compute(5e8, 1e6), {send, recv});
        wl.graphs.push_back(std::move(g));
    }
    return wl;
}

JobSpec
collectiveJob(const std::string &name, int size, Bytes bytes,
              PlacementPolicy placement = PlacementPolicy::Contiguous,
              TimeNs arrival = 0.0)
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

void
expectBreakdownEq(const RuntimeBreakdown &a, const RuntimeBreakdown &b)
{
    EXPECT_EQ(a.compute, b.compute);
    EXPECT_EQ(a.exposedComm, b.exposedComm);
    EXPECT_EQ(a.exposedLocalMem, b.exposedLocalMem);
    EXPECT_EQ(a.exposedRemoteMem, b.exposedRemoteMem);
    EXPECT_EQ(a.idle, b.idle);
}

class SingleJobEquivalence
    : public testing::TestWithParam<NetworkBackendKind>
{
};

TEST_P(SingleJobEquivalence, MatchesPlainSimulatorByteForByte)
{
    Topology topo = parseTopology("Ring(2,250)_Switch(4,50)");
    SimulatorConfig cfg;
    cfg.backend = GetParam();
    cfg.sys.collectiveChunks = 4;
    Workload wl = makeMixedWorkload(topo);

    Simulator plain(topo, cfg);
    Report expect = plain.run(wl);

    ClusterConfig ccfg;
    ccfg.backend = GetParam();
    ClusterSimulator cluster(topo, ccfg);
    JobSpec spec;
    spec.name = "whole";
    spec.size = topo.npus();
    spec.cfg = cfg;
    spec.workload = wl;
    cluster.addJob(std::move(spec));
    ClusterReport report = cluster.run();

    // Cluster aggregate vs plain report: identical simulated results.
    EXPECT_EQ(report.aggregate.totalTime, expect.totalTime);
    EXPECT_EQ(report.aggregate.events, expect.events);
    EXPECT_EQ(report.aggregate.messages, expect.messages);
    const Report &agg = report.aggregate;
    EXPECT_EQ(agg.totalTime, expect.totalTime);
    EXPECT_EQ(agg.events, expect.events);
    EXPECT_EQ(agg.messages, expect.messages);
    ASSERT_EQ(agg.bytesPerDim.size(), expect.bytesPerDim.size());
    for (size_t d = 0; d < expect.bytesPerDim.size(); ++d)
        EXPECT_EQ(agg.bytesPerDim[d], expect.bytesPerDim[d]);
    ASSERT_EQ(agg.busyTimePerDim.size(), expect.busyTimePerDim.size());
    for (size_t d = 0; d < expect.busyTimePerDim.size(); ++d)
        EXPECT_EQ(agg.busyTimePerDim[d], expect.busyTimePerDim[d]);
    EXPECT_EQ(agg.linksPerDim, expect.linksPerDim);
    EXPECT_EQ(agg.maxLinkBusyNs, expect.maxLinkBusyNs);
    ASSERT_EQ(agg.perNpu.size(), expect.perNpu.size());
    for (size_t n = 0; n < expect.perNpu.size(); ++n)
        expectBreakdownEq(agg.perNpu[n], expect.perNpu[n]);
    expectBreakdownEq(agg.average, expect.average);

    // Per-job view of the same run.
    ASSERT_EQ(report.jobs.size(), 1u);
    const JobResult &job = report.jobs[0];
    EXPECT_EQ(job.report.queueingDelayNs, 0.0);
    EXPECT_EQ(job.admitted, 0.0);
    EXPECT_EQ(job.finished, expect.totalTime);
    EXPECT_EQ(job.report.messages, expect.messages);
    // The isolated baseline is the same single-tenant run again.
    EXPECT_EQ(job.isolatedDuration, job.duration);
    EXPECT_EQ(job.report.interferenceSlowdown, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SingleJobEquivalence,
    testing::Values(NetworkBackendKind::Analytical,
                    NetworkBackendKind::AnalyticalPure,
                    NetworkBackendKind::Flow,
                    NetworkBackendKind::Packet),
    [](const testing::TestParamInfo<NetworkBackendKind> &info) {
        switch (info.param) {
          case NetworkBackendKind::Analytical: return "analytical";
          case NetworkBackendKind::AnalyticalPure:
            return "analytical_pure";
          case NetworkBackendKind::Flow: return "flow";
          case NetworkBackendKind::Packet: return "packet";
        }
        return "unknown";
    });

TEST(SingleJobEquivalence, FlowGpt3JobMatchesPlainSimulatorAndCommittedRun)
{
    // A 4-layer GPT-3 hybrid (MP 2) on the whole pod, flow backend.
    Topology topo = parseTopology("Ring(2,250)_Switch(8,50)");
    SimulatorConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    Workload wl = buildHybridTransformer(
        topo, gpt3(), HybridOptions{/*mp=*/2, /*iterations=*/1,
                                    /*simLayers=*/4});
    Report plain = Simulator(topo, cfg).run(wl);

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
    const Report agg = cluster.run().aggregate;

    EXPECT_EQ(agg.totalTime, plain.totalTime);
    EXPECT_EQ(agg.events, plain.events);
    EXPECT_EQ(agg.messages, plain.messages);
    EXPECT_NEAR(agg.totalTime, 8724427655.384, 5e-4);
    EXPECT_EQ(agg.events, 25036u);
    // No isolated baseline, so no slowdown is measured.
    EXPECT_EQ(agg.interferenceSlowdown, 0.0);
    EXPECT_EQ(agg.queueingDelayNs, 0.0);
}

class DisjointIsolation
    : public testing::TestWithParam<NetworkBackendKind>
{
};

TEST_P(DisjointIsolation, ContiguousJobsMatchTheirIsolatedRuns)
{
    ClusterConfig cfg;
    cfg.backend = GetParam();
    ClusterSimulator cluster(parseTopology("Ring(16,100)"), cfg);
    cluster.addJob(collectiveJob("a", 8, 1 << 22));
    cluster.addJob(collectiveJob("b", 8, 1 << 22));
    ClusterReport report = cluster.run();

    ASSERT_EQ(report.jobs.size(), 2u);
    for (const JobResult &job : report.jobs) {
        EXPECT_EQ(job.report.queueingDelayNs, 0.0) << job.name;
        // Contiguous ring slices share no links: the co-executed
        // duration is bit-identical to the isolated baseline.
        EXPECT_EQ(job.duration, job.isolatedDuration) << job.name;
        EXPECT_EQ(job.report.interferenceSlowdown, 1.0) << job.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    CongestionBackends, DisjointIsolation,
    testing::Values(NetworkBackendKind::Analytical,
                    NetworkBackendKind::Flow,
                    NetworkBackendKind::Packet),
    [](const testing::TestParamInfo<NetworkBackendKind> &info) {
        switch (info.param) {
          case NetworkBackendKind::Analytical: return "analytical";
          case NetworkBackendKind::Flow: return "flow";
          case NetworkBackendKind::Packet: return "packet";
          default: return "unknown";
        }
    });

TEST(Interference, StripedJobsContendUnderTheFlowBackend)
{
    ClusterConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    ClusterSimulator cluster(parseTopology("Ring(16,100)"), cfg);
    cluster.addJob(
        collectiveJob("a", 8, 1 << 22, PlacementPolicy::Spread));
    cluster.addJob(
        collectiveJob("b", 8, 1 << 22, PlacementPolicy::Spread));
    ClusterReport report = cluster.run();

    ASSERT_EQ(report.jobs.size(), 2u);
    // Striped slices interleave on the ring: every job-ring hop
    // traverses two physical links shared with the other tenant, so
    // max-min fair sharing must slow both jobs down measurably.
    for (const JobResult &job : report.jobs) {
        EXPECT_GT(job.report.interferenceSlowdown, 1.05) << job.name;
        EXPECT_GT(job.duration, job.isolatedDuration) << job.name;
    }
    EXPECT_GT(report.aggregate.interferenceSlowdown, 1.05);
}

TEST(Interference, FourMegabytePairMatchesTheCommittedSlowdowns)
{
    // Two 8-NPU 4 MB all-reduce tenants on Ring(16,100), flow backend.
    auto run = [](PlacementPolicy placement) {
        ClusterConfig cfg;
        cfg.backend = NetworkBackendKind::Flow;
        ClusterSimulator cluster(parseTopology("Ring(16,100)"), cfg);
        cluster.addJob(collectiveJob("a", 8, 4e6, placement));
        cluster.addJob(collectiveJob("b", 8, 4e6, placement));
        return cluster.run().aggregate;
    };
    Report contig = run(PlacementPolicy::Contiguous);
    Report spread = run(PlacementPolicy::Spread);

    // Disjoint slices share no link; striped slices contend.
    EXPECT_EQ(contig.interferenceSlowdown, 1.0);
    EXPECT_GT(spread.interferenceSlowdown, 1.0);
    EXPECT_NEAR(contig.totalTime, 83000.0, 5e-4);
    EXPECT_EQ(contig.events, 3652u);
    EXPECT_EQ(contig.queueingDelayNs, 0.0);
    EXPECT_NEAR(spread.totalTime, 154000.0, 5e-4);
    EXPECT_EQ(spread.events, 3628u);
    EXPECT_NEAR(spread.interferenceSlowdown, 1.833333, 5e-7);
    EXPECT_EQ(spread.queueingDelayNs, 0.0);
}

TEST(Interference, AnalyticalBackendCannotSeeStripedContention)
{
    // Documented fidelity caveat: the analytical backends serialize
    // per-(NPU, dim) transmit ports only; two jobs never share a
    // port, so even fully interleaved placements report 1.0x.
    ClusterConfig cfg;
    cfg.backend = NetworkBackendKind::Analytical;
    ClusterSimulator cluster(parseTopology("Ring(16,100)"), cfg);
    cluster.addJob(
        collectiveJob("a", 8, 1 << 22, PlacementPolicy::Spread));
    cluster.addJob(
        collectiveJob("b", 8, 1 << 22, PlacementPolicy::Spread));
    ClusterReport report = cluster.run();
    for (const JobResult &job : report.jobs)
        EXPECT_EQ(job.report.interferenceSlowdown, 1.0) << job.name;
}

TEST(Admission, FifoQueuesWhenTheClusterIsFull)
{
    ClusterConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    ClusterSimulator cluster(parseTopology("Ring(8,100)"), cfg);
    cluster.addJob(collectiveJob("first", 8, 1 << 22));
    cluster.addJob(collectiveJob("second", 8, 1 << 22));
    ClusterReport report = cluster.run();

    const JobResult &first = report.jobs[0];
    const JobResult &second = report.jobs[1];
    EXPECT_EQ(first.report.queueingDelayNs, 0.0);
    EXPECT_GT(second.report.queueingDelayNs, 0.0);
    // Admission happens at the head job's finish time.
    EXPECT_EQ(second.admitted, first.finished);
    EXPECT_GE(report.aggregate.totalTime, second.finished);
    // Back-to-back runs of the same job see no contention. The
    // second job executes at an admission-time offset, so its
    // duration may differ from the t=0 isolated baseline in the last
    // floating-point bits (absolute-time arithmetic) — hence
    // near-equality here, vs the bit-exact checks for t=0 jobs.
    EXPECT_EQ(first.report.interferenceSlowdown, 1.0);
    EXPECT_DOUBLE_EQ(second.report.interferenceSlowdown, 1.0);
    // The aggregate report carries the queueing mean for sweeps.
    EXPECT_EQ(report.aggregate.queueingDelayNs,
              (first.report.queueingDelayNs +
               second.report.queueingDelayNs) / 2.0);
}

TEST(Admission, BackfillLetsSmallJobsJumpTheBlockedHead)
{
    auto build = [](AdmissionPolicy admission) {
        ClusterConfig cfg;
        cfg.backend = NetworkBackendKind::Flow;
        cfg.admission = admission;
        cfg.isolatedBaselines = false;
        ClusterSimulator cluster(parseTopology("Ring(8,100)"), cfg);
        // "big" occupies half; "huge" cannot start until it ends;
        // "small" fits immediately — but FIFO makes it wait behind
        // "huge".
        cluster.addJob(collectiveJob("big", 4, 1 << 22));
        cluster.addJob(collectiveJob("huge", 8, 1 << 22,
                                     PlacementPolicy::Contiguous,
                                     1.0));
        cluster.addJob(collectiveJob("small", 4, 1 << 20,
                                     PlacementPolicy::Contiguous,
                                     2.0));
        return cluster.run();
    };

    ClusterReport fifo = build(AdmissionPolicy::Fifo);
    ClusterReport backfill = build(AdmissionPolicy::Backfill);

    // Backfill: "small" starts at its arrival (free slice exists).
    EXPECT_EQ(backfill.jobs[2].admitted, 2.0);
    // FIFO: "small" waits until after "huge" got placed.
    EXPECT_GT(fifo.jobs[2].admitted, fifo.jobs[1].admitted);
    EXPECT_GT(fifo.jobs[2].report.queueingDelayNs, 0.0);
    // Both keep "huge" waiting for the full cluster.
    EXPECT_GE(fifo.jobs[1].admitted, fifo.jobs[0].finished);
    EXPECT_GE(backfill.jobs[1].admitted, backfill.jobs[0].finished);
}

TEST(Admission, QueuedMixMatchesTheCommittedDelays)
{
    // Ring(4) x Switch(8) pod: two 16-NPU jobs fill it; a 32 and an 8
    // queue behind them. Backfill lets the 8 slip past the blocked 32.
    auto run = [](AdmissionPolicy admission) {
        ClusterConfig cfg;
        cfg.backend = NetworkBackendKind::Flow;
        cfg.admission = admission;
        cfg.isolatedBaselines = false;
        ClusterSimulator cluster(
            parseTopology("Ring(4,200)_Switch(8,50)"), cfg);
        cluster.addJob(collectiveJob("t0", 16, 8e6));
        cluster.addJob(collectiveJob("t1", 16, 8e6));
        cluster.addJob(collectiveJob("t2", 32, 8e6,
                                     PlacementPolicy::Contiguous, 1000.0));
        cluster.addJob(collectiveJob("t3", 8, 2e6,
                                     PlacementPolicy::Contiguous, 2000.0));
        return cluster.run().aggregate;
    };
    Report fifo = run(AdmissionPolicy::Fifo);
    Report backfill = run(AdmissionPolicy::Backfill);

    for (const Report *r : {&fifo, &backfill}) {
        EXPECT_NEAR(r->totalTime, 296000.0, 5e-4);
        EXPECT_EQ(r->events, 12420u);
        EXPECT_EQ(r->interferenceSlowdown, 0.0);
    }
    EXPECT_NEAR(fifo.queueingDelayNs, 97500.0, 5e-4);
    EXPECT_NEAR(backfill.queueingDelayNs, 70250.0, 5e-4);
}

TEST(Admission, PriorityOrdersTheQueue)
{
    ClusterConfig cfg;
    cfg.backend = NetworkBackendKind::Analytical;
    cfg.isolatedBaselines = false;
    ClusterSimulator cluster(parseTopology("Ring(8,100)"), cfg);
    // Occupy the cluster, then queue two same-size jobs: the
    // higher-priority one admits first even though it was added
    // later.
    cluster.addJob(collectiveJob("holder", 8, 1 << 22));
    JobSpec low = collectiveJob("low", 8, 1 << 20,
                                PlacementPolicy::Contiguous, 1.0);
    low.priority = 0;
    JobSpec high = collectiveJob("high", 8, 1 << 20,
                                 PlacementPolicy::Contiguous, 1.0);
    high.priority = 5;
    cluster.addJob(std::move(low));
    cluster.addJob(std::move(high));
    ClusterReport report = cluster.run();

    EXPECT_LT(report.jobs[2].admitted, report.jobs[1].admitted);
}

TEST(ExplicitPlacement, RunsOnAnArbitraryNpuSet)
{
    ClusterConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    ClusterSimulator cluster(parseTopology("Ring(8,100)"), cfg);
    JobSpec spec = collectiveJob("odd", 0, 1 << 20,
                                 PlacementPolicy::Explicit);
    spec.explicitNpus = {1, 3, 5, 7};
    cluster.addJob(std::move(spec));
    ClusterReport report = cluster.run();

    ASSERT_EQ(report.jobs.size(), 1u);
    EXPECT_EQ(report.jobs[0].size, 4);
    EXPECT_GT(report.jobs[0].duration, 0.0);
    // Alone on the fabric: explicit placement still measures 1.0x.
    EXPECT_EQ(report.jobs[0].report.interferenceSlowdown, 1.0);
}

TEST(TagNamespacing, StaleDeliveriesNeverMatchASuccessorTenant)
{
    // Job A ends with a dangling send (no matching recv — legal: a
    // send completes on injection). Job B reuses the same NPUs and
    // runs a send/recv pair under the *same* user tag and the same
    // global (src, dst) pair. Without per-job tag namespacing, A's
    // stale delivery satisfies B's recv immediately at admission and
    // B finishes faster than its isolated baseline (slowdown < 1);
    // with namespacing, B's recv can only match B's own message.
    auto p2pJob = [](const std::string &name, bool dangling_only) {
        Workload wl;
        wl.name = name;
        for (NpuId n = 0; n < 2; ++n) {
            EtGraph g;
            g.npu = n;
            if (n == 0)
                g.add(EtNode::send(1, 4096.0, 42));
            else if (!dangling_only)
                g.add(EtNode::recv(0, 42));
            else
                g.add(EtNode::compute(1e9, 1e6));
            wl.graphs.push_back(std::move(g));
        }
        return wl;
    };

    ClusterConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    ClusterSimulator cluster(parseTopology("Ring(2,100)"), cfg);
    JobSpec a;
    a.name = "dangler";
    a.size = 2;
    a.workload = p2pJob("dangler", /*dangling_only=*/true);
    cluster.addJob(std::move(a));
    JobSpec b;
    b.name = "victim";
    b.size = 2;
    b.workload = p2pJob("victim", /*dangling_only=*/false);
    cluster.addJob(std::move(b));
    ClusterReport report = cluster.run();

    // B's co-executed run (after A fully finished, same NPUs) must
    // match its isolated baseline — a faster run would mean its recv
    // consumed A's stale message.
    EXPECT_DOUBLE_EQ(report.jobs[1].report.interferenceSlowdown, 1.0);
    EXPECT_GE(report.jobs[1].duration,
              report.jobs[1].isolatedDuration * (1.0 - 1e-9));
}

TEST(ClusterReport, JobsCsvCarriesTenancyColumns)
{
    ClusterConfig cfg;
    cfg.backend = NetworkBackendKind::Analytical;
    ClusterSimulator cluster(parseTopology("Ring(8,100)"), cfg);
    cluster.addJob(collectiveJob("a", 8, 1 << 20));
    cluster.addJob(collectiveJob("b", 8, 1 << 20));
    ClusterReport report = cluster.run();

    std::string csv = report.jobsCsv();
    EXPECT_NE(csv.find("queueing_delay_ns"), std::string::npos);
    EXPECT_NE(csv.find("interference_slowdown"), std::string::npos);
    json::Value doc = report.toJson();
    EXPECT_EQ(doc.at("jobs").asArray().size(), 2u);
    EXPECT_TRUE(doc.at("jobs").asArray()[1].has("queueing_delay_ns"));
}

TEST(Admission, EasyBackfillRespectsTheHeadsReservation)
{
    // With runtime estimates, backfill turns EASY-style: the blocked
    // head gets a reservation at the running jobs' projected finish,
    // and a later job may jump the queue only if its own estimate
    // fits before that shadow time (docs/cluster.md "Backfill").
    auto build = [](TimeNs filler_estimate) {
        ClusterConfig cfg;
        cfg.backend = NetworkBackendKind::Flow;
        cfg.admission = AdmissionPolicy::Backfill;
        cfg.isolatedBaselines = false;
        ClusterSimulator cluster(parseTopology("Ring(8,100)"), cfg);
        JobSpec runner = collectiveJob("runner", 4, 1 << 22);
        runner.estimatedDuration = 50000.0;
        cluster.addJob(std::move(runner));
        JobSpec head = collectiveJob("head", 8, 1 << 22,
                                     PlacementPolicy::Contiguous, 1.0);
        head.estimatedDuration = 50000.0;
        cluster.addJob(std::move(head));
        JobSpec filler = collectiveJob("filler", 4, 1 << 20,
                                       PlacementPolicy::Contiguous,
                                       2.0);
        filler.estimatedDuration = filler_estimate;
        cluster.addJob(std::move(filler));
        return cluster.run();
    };

    // Under-estimate relative to the hole: 2 + 10000 <= 50000, the
    // filler fits before the head's reservation and starts at its
    // arrival.
    ClusterReport fits = build(10000.0);
    EXPECT_EQ(fits.jobs[2].admitted, 2.0);
    EXPECT_GE(fits.jobs[1].admitted, fits.jobs[0].finished);

    // Over-estimate: the filler's claimed runtime overruns the
    // head's shadow start, so it must wait its turn behind the head.
    ClusterReport blocked = build(60000.0);
    EXPECT_GE(blocked.jobs[2].admitted, blocked.jobs[1].finished);
    EXPECT_GT(blocked.jobs[2].report.queueingDelayNs, 0.0);

    // No estimate at all: never allowed past a reserved head.
    ClusterReport unknown = build(0.0);
    EXPECT_GE(unknown.jobs[2].admitted, unknown.jobs[1].finished);
}

TEST(Admission, BackfillStaysAggressiveWithoutEstimates)
{
    // If any running job has an unknown runtime, no reservation is
    // computable and backfill falls back to "anything that fits
    // starts" — the pre-estimate behavior.
    ClusterConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    cfg.admission = AdmissionPolicy::Backfill;
    cfg.isolatedBaselines = false;
    ClusterSimulator cluster(parseTopology("Ring(8,100)"), cfg);
    cluster.addJob(collectiveJob("runner", 4, 1 << 22)); // no estimate
    cluster.addJob(collectiveJob("head", 8, 1 << 22,
                                 PlacementPolicy::Contiguous, 1.0));
    JobSpec filler = collectiveJob("filler", 4, 1 << 20,
                                   PlacementPolicy::Contiguous, 2.0);
    filler.estimatedDuration = 1e9; // huge estimate, still admitted.
    cluster.addJob(std::move(filler));
    ClusterReport report = cluster.run();
    EXPECT_EQ(report.jobs[2].admitted, 2.0);
}

TEST(ClusterErrors, DeadlocksAndMisuseAreUserErrors)
{
    ClusterConfig cfg;
    ClusterSimulator cluster(parseTopology("Ring(8,100)"), cfg);
    // Hierarchy-incompatible size.
    EXPECT_THROW(cluster.addJob(collectiveJob("bad", 3, 1 << 20)),
                 FatalError);
    // Oversized job.
    EXPECT_THROW(cluster.addJob(collectiveJob("big", 16, 1 << 20)),
                 FatalError);
    // No jobs at all.
    EXPECT_THROW(cluster.run(), FatalError);
}

} // namespace
} // namespace cluster
} // namespace astra
