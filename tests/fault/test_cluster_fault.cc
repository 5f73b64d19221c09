/**
 * @file
 * Cluster failure-resilience tests (docs/fault.md):
 *
 *  - Checkpoint/rollback: an NPU failure rolls the resident job back
 *    to its last snapshot, restarts it after recovery, and reports
 *    lost work, recovery time, restart count, and goodput.
 *  - Requeue restart: a job whose NPU never recovers is re-placed on
 *    healthy NPUs when its policy allows it.
 *  - Stranded jobs fail in isolation with a diagnostic instead of
 *    aborting the run.
 *  - Empty fault scenarios are bit-exact no-ops at the cluster layer.
 *  - Fixed seeds reproduce identical metrics across repeated runs.
 *  - The report surfaces the resilience columns (CSV/JSON) and the
 *    per-job link-busy attribution.
 *  - The NPU-MTBF x checkpoint-interval goodput grid and the empty
 *    scenario on a two-tenant ring hold their committed results, to
 *    the printed precision of the bench ledger they came from.
 */
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/config.h"
#include "common/logging.h"
#include "common/units.h"
#include "sweep/spec.h"
#include "topology/notation.h"

namespace astra {
namespace cluster {
namespace {

JobSpec
collectiveJob(const std::string &name, int size, Bytes bytes)
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

fault::FaultConfig
npuFailAt(NpuId npu, TimeNs fail_at, TimeNs recover_at = -1.0)
{
    fault::FaultConfig cfg;
    fault::FaultEvent fail;
    fail.kind = fault::FaultKind::NpuFail;
    fail.npu = npu;
    fail.at = fail_at;
    cfg.schedule.push_back(fail);
    if (recover_at >= 0.0) {
        fault::FaultEvent rec = fail;
        rec.kind = fault::FaultKind::NpuRecover;
        rec.at = recover_at;
        cfg.schedule.push_back(rec);
    }
    return cfg;
}

TEST(CheckpointRestart, FailureRollsBackAndRestartsInPlace)
{
    ClusterConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    cfg.fault = npuFailAt(1, 31000.0, 35000.0);
    cfg.defaultCheckpoint.intervalNs = 10000.0;
    cfg.defaultCheckpoint.costNs = 0.0;
    cfg.defaultCheckpoint.restartDelayNs = 500.0;

    ClusterSimulator cluster(parseTopology("Ring(4,100)"), cfg);
    cluster.addJob(collectiveJob("train", 4, 1 << 22));
    ClusterReport report = cluster.run();

    ASSERT_EQ(report.jobs.size(), 1u);
    const JobResult &job = report.jobs[0];
    EXPECT_FALSE(job.failed) << job.error;
    EXPECT_EQ(job.report.numFaults, 1u);
    EXPECT_EQ(job.restarts, 1);
    // Rolled back from the failure at 31 us to the 30 us snapshot.
    EXPECT_NEAR(job.report.lostWorkNs, 1000.0, 1.0);
    // Down from the failure until recovery + restart delay.
    EXPECT_NEAR(job.report.recoveryTimeNs, 35000.0 + 500.0 - 31000.0,
                1.0);
    // The restarted job finishes after the restart point and pays the
    // outage: goodput is a real fraction in (0, 1).
    EXPECT_GT(job.finished, 35500.0);
    EXPECT_GT(job.report.goodput, 0.0);
    EXPECT_LT(job.report.goodput, 1.0);
    EXPECT_GT(job.duration, job.isolatedDuration);

    // Aggregate plumbing for sweeps.
    EXPECT_EQ(report.aggregate.numFaults, 2u); // fail + recover fired.
    EXPECT_EQ(report.aggregate.lostWorkNs, job.report.lostWorkNs);
    EXPECT_EQ(report.aggregate.recoveryTimeNs, job.report.recoveryTimeNs);
    EXPECT_EQ(report.aggregate.goodput, job.report.goodput);
    EXPECT_EQ(report.aggregate.totalTime, job.finished);
}

TEST(CheckpointRestart, NoCheckpointMeansRestartFromScratch)
{
    // Same failure without checkpointing: everything up to the
    // failure is lost.
    ClusterConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    cfg.fault = npuFailAt(1, 31000.0, 35000.0);

    ClusterSimulator cluster(parseTopology("Ring(4,100)"), cfg);
    cluster.addJob(collectiveJob("train", 4, 1 << 22));
    ClusterReport report = cluster.run();

    const JobResult &job = report.jobs[0];
    EXPECT_FALSE(job.failed) << job.error;
    EXPECT_EQ(job.restarts, 1);
    EXPECT_NEAR(job.report.lostWorkNs, 31000.0, 1.0);
    EXPECT_LT(job.report.goodput, 1.0);
}

TEST(CheckpointRestart, RequeuePlacesAroundTheFaultedNpu)
{
    // NPU 1 fails and never recovers; the job's requeue policy lets
    // the placer move it to the healthy half of the ring.
    ClusterConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    cfg.fault = npuFailAt(1, 20000.0);
    cfg.defaultCheckpoint.restartDelayNs = 1000.0;
    cfg.defaultCheckpoint.restart = fault::RestartMode::Requeue;

    ClusterSimulator cluster(parseTopology("Ring(8,100)"), cfg);
    cluster.addJob(collectiveJob("train", 4, 1 << 22));
    ClusterReport report = cluster.run();

    const JobResult &job = report.jobs[0];
    EXPECT_FALSE(job.failed) << job.error;
    EXPECT_EQ(job.restarts, 1);
    EXPECT_GT(job.finished, 21000.0);
    // The new placement cannot contain the faulted NPU 1.
    EXPECT_EQ(job.placement.find("1"), std::string::npos)
        << job.placement;
}

TEST(CheckpointRestart, StrandedJobFailsInIsolation)
{
    // In-place restart policy + an NPU that never recovers: the job
    // can never restart. It must fail with a diagnostic — not hang,
    // not abort the cluster run.
    ClusterConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    cfg.fault = npuFailAt(1, 20000.0);

    ClusterSimulator cluster(parseTopology("Ring(4,100)"), cfg);
    cluster.addJob(collectiveJob("doomed", 4, 1 << 22));
    ClusterReport report = cluster.run();

    const JobResult &job = report.jobs[0];
    EXPECT_TRUE(job.failed);
    EXPECT_FALSE(job.error.empty());
    EXPECT_EQ(job.report.numFaults, 1u);
    // Failed rows render in every report surface.
    EXPECT_NE(report.summary().find("FAILED"), std::string::npos);
    EXPECT_NE(report.jobsCsv().find("failed"), std::string::npos);
    json::Value doc = report.toJson();
    const json::Value &row = doc.at("jobs").asArray()[0];
    EXPECT_TRUE(row.at("failed").asBool());
    EXPECT_FALSE(row.at("error").asString().empty());
}

TEST(ClusterFaults, EmptyScenarioIsBitExact)
{
    auto run = [](bool with_empty_fault) {
        ClusterConfig cfg;
        cfg.backend = NetworkBackendKind::Flow;
        if (with_empty_fault)
            cfg.fault = fault::FaultConfig{};
        ClusterSimulator cluster(parseTopology("Ring(8,100)"), cfg);
        cluster.addJob(collectiveJob("a", 4, 1 << 22));
        cluster.addJob(collectiveJob("b", 4, 1 << 22));
        return cluster.run();
    };
    ClusterReport base = run(false);
    ClusterReport with = run(true);
    EXPECT_EQ(with.aggregate.totalTime, base.aggregate.totalTime);
    EXPECT_EQ(with.aggregate.events, base.aggregate.events);
    EXPECT_EQ(with.aggregate.messages, base.aggregate.messages);
    EXPECT_EQ(with.jobsCsv(), base.jobsCsv());
}

TEST(ClusterFaults, EmptyScenarioOnATenantPairMatchesTheCommittedRun)
{
    // Two 8-NPU 4 MB tenants on Ring(16,100), flow backend.
    auto run = [](bool with_empty_fault) {
        ClusterConfig cfg;
        cfg.backend = NetworkBackendKind::Flow;
        if (with_empty_fault)
            cfg.fault = fault::FaultConfig{};
        ClusterSimulator cluster(parseTopology("Ring(16,100)"), cfg);
        cluster.addJob(collectiveJob("a", 8, 4e6));
        cluster.addJob(collectiveJob("b", 8, 4e6));
        return cluster.run();
    };
    ClusterReport base = run(false);
    ClusterReport with = run(true);
    EXPECT_EQ(with.aggregate.totalTime, base.aggregate.totalTime);
    EXPECT_EQ(with.aggregate.events, base.aggregate.events);
    EXPECT_EQ(with.aggregate.messages, base.aggregate.messages);
    EXPECT_EQ(with.jobsCsv(), base.jobsCsv());

    const Report &agg = with.aggregate;
    EXPECT_NEAR(agg.totalTime, 83000.0, 5e-4);
    EXPECT_EQ(agg.events, 3652u);
    EXPECT_EQ(agg.numFaults, 0u);
    EXPECT_EQ(agg.lostWorkNs, 0.0);
    EXPECT_EQ(agg.recoveryTimeNs, 0.0);
    EXPECT_EQ(agg.goodput, 1.0); // faults cost nothing.
}

TEST(ClusterFaults, FixedSeedReproducesIdenticalMetrics)
{
    auto run = [] {
        ClusterConfig cfg;
        cfg.backend = NetworkBackendKind::Flow;
        fault::FaultConfig f;
        f.seed = 7;
        f.horizonNs = 2e5;
        f.linkMtbfNs = 5e4;
        f.linkMttrNs = 1e4;
        f.linkDegradeScale = 0.5;
        cfg.fault = f;
        ClusterSimulator cluster(parseTopology("Ring(8,100)"), cfg);
        cluster.addJob(collectiveJob("a", 4, 1 << 22));
        cluster.addJob(collectiveJob("b", 4, 1 << 22));
        return cluster.run();
    };
    ClusterReport a = run();
    ClusterReport b = run();
    EXPECT_GT(a.aggregate.numFaults, 0u);
    EXPECT_EQ(a.aggregate.totalTime, b.aggregate.totalTime);
    EXPECT_EQ(a.aggregate.events, b.aggregate.events);
    EXPECT_EQ(a.jobsCsv(), b.jobsCsv());
    EXPECT_EQ(a.toJson().dump(), b.toJson().dump());
}

TEST(ClusterFaults, StragglerSlowsTheResidentJob)
{
    auto makespan = [](double scale) {
        ClusterConfig cfg;
        cfg.backend = NetworkBackendKind::Flow;
        cfg.isolatedBaselines = false;
        if (scale != 1.0) {
            fault::FaultConfig f;
            fault::FaultEvent ev;
            ev.kind = fault::FaultKind::Straggler;
            ev.npu = 2;
            ev.computeScale = scale;
            ev.injectionScale = 1.0 / scale;
            f.schedule.push_back(ev);
            cfg.fault = f;
        }
        ClusterSimulator cluster(parseTopology("Ring(4,100)"), cfg);
        cluster.addJob(collectiveJob("a", 4, 1 << 22));
        return cluster.run().aggregate.totalTime;
    };
    EXPECT_GT(makespan(4.0), makespan(1.0) * 1.5);
}

TEST(ClusterFaults, ReportCarriesOwnBusyAttribution)
{
    ClusterConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    ClusterSimulator cluster(parseTopology("Ring(8,100)"), cfg);
    cluster.addJob(collectiveJob("a", 4, 1 << 22));
    cluster.addJob(collectiveJob("b", 4, 1 << 22));
    ClusterReport report = cluster.run();

    for (const JobResult &job : report.jobs) {
        ASSERT_EQ(job.ownBusyPerDim.size(), 1u) << job.name;
        EXPECT_GT(job.ownBusyPerDim[0], 0.0) << job.name;
    }
    // Per-job attribution is separable: the tenants' own-busy sums
    // cannot exceed the fabric-level busy total.
    double own_total = report.jobs[0].ownBusyPerDim[0] +
                       report.jobs[1].ownBusyPerDim[0];
    EXPECT_LE(own_total, report.aggregate.busyTimePerDim[0] * 1.0001);
    // Disjoint equal jobs split the fabric roughly evenly.
    EXPECT_NEAR(report.jobs[0].ownBusyPerDim[0],
                report.jobs[1].ownBusyPerDim[0],
                0.05 * report.jobs[0].ownBusyPerDim[0]);
    // CSV and JSON surfaces carry the columns.
    EXPECT_NE(report.jobsCsv().find("own_busy_per_dim_ns"),
              std::string::npos);
    json::Value doc = report.toJson();
    EXPECT_TRUE(doc.at("jobs").asArray()[0].has("own_busy_per_dim_ns"));
    EXPECT_TRUE(doc.has("mean_goodput"));
}

TEST(CheckpointRestart, SpareSwapPatchesTheFailedPlacement)
{
    // Two reserved spares (highest ids 6, 7); NPU 1 fails for good.
    // Spare restart swaps the dead NPU for a spare and resumes from
    // the snapshot instead of waiting or re-placing from scratch.
    // Switch fabric: every NPU pair routes via the switch, so the
    // patched (non-contiguous) placement never transits the dead NPU.
    ClusterConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    cfg.fault = npuFailAt(1, 31000.0);
    cfg.defaultCheckpoint.intervalNs = 10000.0;
    cfg.defaultCheckpoint.restartDelayNs = 1000.0;
    cfg.defaultCheckpoint.restart = fault::RestartMode::Spare;
    cfg.spareCount = 2;

    ClusterSimulator cluster(parseTopology("Switch(8,100)"), cfg);
    cluster.addJob(collectiveJob("train", 4, 1 << 22));
    ClusterReport report = cluster.run();

    const JobResult &job = report.jobs[0];
    EXPECT_FALSE(job.failed) << job.error;
    EXPECT_EQ(job.restarts, 1);
    // Snapshot-resume: only the work past the 30 us snapshot is lost.
    EXPECT_NEAR(job.report.lostWorkNs, 1000.0, 1.0);
    // The consumed spare shows up in the pool-utilization aggregate.
    EXPECT_GT(report.aggregate.spareUtilization, 0.0);
}

TEST(CheckpointRestart, GoodputGridMatchesTheCommittedTradeOff)
{
    // NPU-MTBF x checkpoint-interval grid on one 2-iteration GPT-3 job
    // (many workload nodes, so a checkpoint cut captures real progress
    // and rollback re-executes only the tail): checkpoint too rarely
    // and failures roll back large windows; the checkpoint cost is
    // what the 1 s column pays over the 5 s one.
    struct Point
    {
        TimeNs mtbfMs, intervalMs;
        TimeNs total;
        uint64_t events, faults;
        TimeNs lost, recovery;
        double goodput;
    };
    const Point grid[] = {
        {40000, 0, 190769520487.398, 25576, 35, 144128079785.198,
         21450328438.849, 0.13205},
        {40000, 1000, 69678035971.635, 23571, 20, 9391035458.745,
         14262674269.139, 0.361536},
        {40000, 5000, 78755078401.492, 16727, 20, 38391035458.745,
         14262674269.139, 0.319867},
        {160000, 0, 181467034746.729, 40274, 15, 146281171400.128,
         9994751083.249, 0.138819},
        {160000, 1000, 32610906392.242, 11925, 2, 1371913589.525,
         1770679760.785, 0.772475},
        {160000, 5000, 36535898892.242, 8885, 2, 9371913589.525,
         1770679760.785, 0.689489},
    };
    for (const Point &p : grid) {
        SCOPED_TRACE(testing::Message() << "mtbf " << p.mtbfMs
                                        << " ms, interval "
                                        << p.intervalMs << " ms");
        ClusterConfig cfg;
        cfg.backend = NetworkBackendKind::Flow;
        fault::FaultConfig f;
        f.seed = 5;
        f.horizonNs = 300000.0 * kMs;
        f.npuMtbfNs = p.mtbfMs * kMs;
        f.npuMttrNs = 500.0 * kMs;
        cfg.fault = f;
        cfg.defaultCheckpoint.intervalNs = p.intervalMs * kMs;
        cfg.defaultCheckpoint.costNs = 50.0 * kMs;
        cfg.defaultCheckpoint.restartDelayNs = 100.0 * kMs;
        ClusterSimulator cluster(parseTopology("Ring(8,100)"), cfg);
        JobSpec spec;
        spec.name = "train";
        spec.size = 8;
        spec.workloadDoc = json::parse(
            R"({"kind": "hybrid", "model": "gpt3", "sim_layers": 2,
                "iterations": 2})");
        cluster.addJob(std::move(spec));
        ClusterReport report = cluster.run();

        const JobResult &job = report.jobs[0];
        ASSERT_FALSE(job.failed) << job.error;
        EXPECT_GT(job.report.goodput, 0.0);
        EXPECT_LE(job.report.goodput, 1.0);
        EXPECT_NEAR(report.aggregate.totalTime, p.total, 5e-4);
        EXPECT_EQ(report.aggregate.events, p.events);
        EXPECT_EQ(job.report.numFaults, p.faults);
        EXPECT_NEAR(job.report.lostWorkNs, p.lost, 5e-4);
        EXPECT_NEAR(job.report.recoveryTimeNs, p.recovery, 5e-4);
        EXPECT_NEAR(job.report.goodput, p.goodput, 5e-7);
    }
}

TEST(CheckpointRestart, MigrateResumesSnapshotWhereRequeueIsCold)
{
    // Same permanent NPU failure under both re-placement modes.
    // Migrate carries the checkpoint to the new placement; Requeue
    // deliberately starts cold (a fresh placement cannot assume the
    // snapshot's rank layout is worth keeping).
    auto run = [](fault::RestartMode mode) {
        ClusterConfig cfg;
        cfg.backend = NetworkBackendKind::Flow;
        cfg.fault = npuFailAt(1, 31000.0);
        cfg.defaultCheckpoint.intervalNs = 10000.0;
        cfg.defaultCheckpoint.restartDelayNs = 1000.0;
        cfg.defaultCheckpoint.restart = mode;
        ClusterSimulator cluster(parseTopology("Ring(8,100)"), cfg);
        cluster.addJob(collectiveJob("train", 4, 1 << 22));
        return cluster.run();
    };

    ClusterReport migrate = run(fault::RestartMode::Migrate);
    ClusterReport requeue = run(fault::RestartMode::Requeue);
    ASSERT_FALSE(migrate.jobs[0].failed) << migrate.jobs[0].error;
    ASSERT_FALSE(requeue.jobs[0].failed) << requeue.jobs[0].error;
    // Migrate: rolled back to the 30 us snapshot.
    EXPECT_NEAR(migrate.jobs[0].report.lostWorkNs, 1000.0, 1.0);
    // Requeue: everything up to the failure is lost.
    EXPECT_NEAR(requeue.jobs[0].report.lostWorkNs, 31000.0, 1.0);
    EXPECT_GT(requeue.jobs[0].report.lostWorkNs,
              migrate.jobs[0].report.lostWorkNs);
    // Both re-place around the dead NPU 1.
    EXPECT_EQ(migrate.jobs[0].placement.find("1"), std::string::npos)
        << migrate.jobs[0].placement;
}

TEST(ClusterFaults, AvoidDegradedSteersAwayFromTheFlakyRack)
{
    // Rack 0 generates failures (tight per-domain MTBF); rack 1 is
    // quiet. avoid_degraded scores the projected failure intensity
    // and places the job on the stable rack, so it never gets hit.
    auto run = [](PlacementPolicy policy) {
        ClusterConfig cfg;
        cfg.backend = NetworkBackendKind::Flow;
        cfg.isolatedBaselines = false;
        cfg.fault = fault::faultConfigFromJson(json::parse(R"json({
          "seed": 5, "horizon_ns": 300000,
          "domains": [
            {"name": "flaky", "level": 1, "index": 0,
             "mtbf_ns": 30000, "mttr_ns": 10000},
            {"name": "stable", "level": 1, "index": 1}
          ]
        })json"));
        cfg.defaultCheckpoint.intervalNs = 10000.0;
        cfg.defaultCheckpoint.restartDelayNs = 1000.0;
        cfg.defaultCheckpoint.restart = fault::RestartMode::Migrate;
        ClusterSimulator cluster(
            parseTopology("Ring(4,100)_Switch(2,50)"), cfg);
        JobSpec spec = collectiveJob("train", 4, 1 << 22);
        spec.placement = policy;
        cluster.addJob(std::move(spec));
        return cluster.run();
    };

    ClusterReport aware = run(PlacementPolicy::AvoidDegraded);
    ASSERT_FALSE(aware.jobs[0].failed) << aware.jobs[0].error;
    // Placed on the stable rack {4..7}: zero faults ever hit it.
    EXPECT_EQ(aware.jobs[0].report.numFaults, 0u);
    EXPECT_NE(aware.jobs[0].placement.find("avoid_degraded"),
              std::string::npos)
        << aware.jobs[0].placement;

    // The oblivious contiguous placement lands on the flaky rack.
    ClusterReport oblivious = run(PlacementPolicy::Contiguous);
    EXPECT_GT(oblivious.jobs[0].report.numFaults, 0u);
}

TEST(ClusterFaults, AutoIntervalResolvesViaYoungDaly)
{
    json::Value doc = json::parse(R"json({
      "topology": "Ring(4,100)",
      "backend": "flow",
      "fault": {"seed": 2, "horizon_ns": 300000,
                "npu_mtbf_ns": 150000, "npu_mttr_ns": 20000},
      "cluster": {
        "checkpoint": {"interval_ns": "auto", "cost_ns": 100,
                       "restart_delay_ns": 500},
        "jobs": [
          {"name": "train", "size": 4,
           "workload": {"kind": "collective",
                        "collective": "all-reduce",
                        "bytes": 4194304}}
        ]
      }
    })json");
    ClusterReport report = runClusterScenario(doc);
    ASSERT_EQ(report.jobs.size(), 1u);
    EXPECT_FALSE(report.jobs[0].failed) << report.jobs[0].error;

    // "auto" without MTBF-based generation has no rate to derive an
    // interval from — a user error, not a silent fallback.
    json::Value bad = doc.clone();
    sweep::applyOverride(bad, "fault", json::parse(R"({"schedule":
        [{"at_ns": 1000, "kind": "npu_fail", "npu": 1}]})"));
    EXPECT_THROW(runClusterScenario(bad), FatalError);
}

TEST(ClusterFaults, WholeRackStrandNamesTheDomainAndWatermark)
{
    // The whole resident rack dies and never recovers; the in-place
    // restart policy can only wait. The job must fail in isolation
    // with a diagnostic naming the down domain and the snapshot
    // watermark it would have resumed from.
    ClusterConfig cfg;
    cfg.backend = NetworkBackendKind::Flow;
    cfg.fault = fault::faultConfigFromJson(json::parse(R"json({
      "domains": [{"name": "rack", "level": 1, "index": 0}],
      "schedule": [
        {"at_ns": 31000, "kind": "domain_fail", "domain": "rack"}
      ]
    })json"));
    cfg.defaultCheckpoint.intervalNs = 10000.0;
    cfg.defaultCheckpoint.restartDelayNs = 500.0;

    ClusterSimulator cluster(parseTopology("Ring(4,100)_Switch(2,50)"),
                             cfg);
    cluster.addJob(collectiveJob("doomed", 4, 1 << 22));
    ClusterReport report = cluster.run();

    const JobResult &job = report.jobs[0];
    EXPECT_TRUE(job.failed);
    EXPECT_NE(job.error.find("rack"), std::string::npos) << job.error;
    EXPECT_NE(job.error.find("snapshot watermark"), std::string::npos)
        << job.error;
    // One disruption: the first member fail-stop takes the job down;
    // the rest of the rack hits an already-down job.
    EXPECT_EQ(job.report.numFaults, 1u);
}

TEST(ClusterFaults, ScenarioJsonEndToEnd)
{
    // Full config-file path: fault + checkpoint blocks parse and run.
    json::Value doc = json::parse(R"json({
      "topology": "Ring(4,100)",
      "backend": "flow",
      "fault": {
        "schedule": [
          {"at_ns": 31000, "kind": "npu_fail", "npu": 1},
          {"at_ns": 35000, "kind": "npu_recover", "npu": 1}
        ]
      },
      "cluster": {
        "checkpoint": {"interval_ns": 10000, "cost_ns": 100,
                       "restart_delay_ns": 500},
        "jobs": [
          {"name": "train", "size": 4,
           "workload": {"kind": "collective",
                        "collective": "all-reduce",
                        "bytes": 4194304}}
        ]
      }
    })json");
    ClusterReport report = runClusterScenario(doc);
    ASSERT_EQ(report.jobs.size(), 1u);
    EXPECT_FALSE(report.jobs[0].failed) << report.jobs[0].error;
    EXPECT_EQ(report.jobs[0].restarts, 1);
    EXPECT_GT(report.jobs[0].report.lostWorkNs, 0.0);
    EXPECT_GT(report.aggregate.numFaults, 0u);
}

} // namespace
} // namespace cluster
} // namespace astra
