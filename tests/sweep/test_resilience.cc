/**
 * @file
 * Tests for the `seeds` sweep shorthand and the checkpoint-interval
 * auto-tuner / resilience-study runner (sweep/resilience.h,
 * docs/sweep.md "Seed replication", docs/fault.md "Checkpoint
 * auto-tuning"), including the committed results of the tuner on an
 * uncorrelated baseline and of the placement policies under correlated
 * rack failures, to the printed precision of the bench ledger they
 * came from.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "common/logging.h"
#include "sweep/resilience.h"
#include "sweep/result_store.h"
#include "sweep/runner.h"

namespace astra {
namespace sweep {
namespace {

/** Tiny faulty cluster config: quick to simulate, failures guaranteed
 *  inside the job's runtime. */
json::Value
faultyClusterDoc()
{
    return json::parse(R"json({
      "topology": "Ring(4,100)",
      "backend": "analytical",
      "fault": {
        "seed": 1,
        "horizon_ns": 100000,
        "npu_mtbf_ns": 25000,
        "npu_mttr_ns": 5000
      },
      "cluster": {
        "checkpoint": {"interval_ns": 10000, "cost_ns": 500,
                       "restart_delay_ns": 1000},
        "jobs": [
          {"name": "train", "size": 4,
           "workload": {"kind": "collective",
                        "collective": "all-reduce",
                        "bytes": 4194304}}
        ]
      }
    })json");
}

TEST(SeedsShorthand, ExpandsToATrailingFaultSeedAxis)
{
    json::Value doc = json::parse(R"json({
      "name": "replicated",
      "base": {"topology": "Ring(4,100)", "backend": "analytical",
               "cluster": {"jobs": [
                 {"name": "j", "size": 4,
                  "workload": {"kind": "collective",
                               "collective": "all-reduce",
                               "bytes": 1048576}}]}},
      "axes": [{"path": "cluster.placement", "name": "placement",
                "values": ["contiguous", "anti_affinity"]}],
      "seeds": 3
    })json");
    SweepSpec spec = SweepSpec::fromJson(doc);
    EXPECT_EQ(spec.configCount(), 6u);
    // The seed axis is appended last, so it varies fastest: the
    // replications of one variant are a contiguous row block.
    std::vector<std::string> names = spec.axisNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "placement");
    EXPECT_EQ(names[1], "seed");
    for (size_t i = 0; i < 6; ++i) {
        json::Value cfg = spec.config(i).doc;
        EXPECT_EQ(cfg.at("fault").at("seed").asInt(),
                  static_cast<int64_t>(i % 3 + 1));
    }
}

TEST(SeedsShorthand, WorksWithoutExplicitAxesAndValidates)
{
    json::Value doc = json::parse(R"json({
      "name": "seeds-only",
      "base": {"topology": "Ring(4,100)"},
      "seeds": 2
    })json");
    SweepSpec spec = SweepSpec::fromJson(doc);
    EXPECT_EQ(spec.configCount(), 2u);
    EXPECT_EQ(spec.axisNames(), std::vector<std::string>{"seed"});

    // seeds must be >= 1.
    json::Value zero = doc.clone();
    applyOverride(zero, "seeds", json::Value(int64_t{0}));
    EXPECT_THROW(SweepSpec::fromJson(zero), FatalError);

    // Neither axes nor seeds: nothing to sweep.
    EXPECT_THROW(
        SweepSpec::fromJson(json::parse(
            R"json({"name": "x", "base": {"topology": "Ring(4,100)"}})json")),
        FatalError);
}

TEST(SeedsShorthand, SeedSweepDeterministicAcrossThreadCounts)
{
    json::Object doc;
    doc["name"] = json::Value(std::string("seed-replication"));
    doc["base"] = faultyClusterDoc();
    doc["seeds"] = json::Value(int64_t{4});
    SweepSpec spec = SweepSpec::fromJson(json::Value(std::move(doc)));
    ASSERT_EQ(spec.configCount(), 4u);

    auto bytes = [&](int threads) {
        BatchOptions opts;
        opts.threads = threads;
        ResultStore store =
            ResultStore::fromBatch(spec, runBatch(spec, opts));
        return store.toCsv() + store.toJson().dump(2);
    };
    std::string one = bytes(1);
    EXPECT_EQ(bytes(2), one);
    EXPECT_EQ(bytes(8), one);

    // Different seeds draw different failure realizations: at least
    // one metric column must differ across the replications.
    ResultStore store =
        ResultStore::fromBatch(spec, runBatch(spec, BatchOptions{}));
    double lo = store.value(store.argmin(Metric::NumFaults),
                            Metric::NumFaults);
    double hi = store.value(store.argmax(Metric::NumFaults),
                            Metric::NumFaults);
    EXPECT_GT(hi, 0.0);
    EXPECT_NE(lo, hi);
}

TEST(CheckpointTuner, ProbesLadderPlusRefinementAndPicksArgmax)
{
    json::Value doc = faultyClusterDoc();
    CheckpointTuning t = tuneCheckpointInterval(doc, /*refineEvals=*/2);
    EXPECT_GT(t.youngDalyNs, 0.0);
    // Five ladder probes + two golden-section refinements.
    ASSERT_EQ(t.probes.size(), 7u);
    // The first five probes ARE the fixed-interval grid {yd/4 ..
    // 4*yd}; the tuned result is the argmax over every probe, so it
    // can never lose to that grid.
    double best_grid = 0.0;
    for (size_t i = 0; i < 5; ++i) {
        EXPECT_NEAR(t.probes[i].intervalNs,
                    t.youngDalyNs * (0.25 * double(1 << i)), 1e-6);
        best_grid = std::max(best_grid, t.probes[i].goodput);
    }
    EXPECT_GE(t.goodput, best_grid);
    double best_all = 0.0;
    for (const IntervalProbe &p : t.probes)
        best_all = std::max(best_all, p.goodput);
    EXPECT_EQ(t.goodput, best_all);
    // Determinism: the same document tunes to the same interval.
    CheckpointTuning again = tuneCheckpointInterval(doc, 2);
    EXPECT_EQ(again.intervalNs, t.intervalNs);
    EXPECT_EQ(tuningToJson(again).dump(), tuningToJson(t).dump());
}

TEST(CheckpointTuner, UncorrelatedBaselineMatchesTheCommittedTuning)
{
    // Independent per-NPU failures on one long 4-iteration GPT-3 job
    // with in-place restart. The workload is multi-node, so a
    // checkpoint cut captures completed nodes and goodput curves with
    // the interval.
    CheckpointTuning t = tuneCheckpointInterval(json::parse(R"json({
      "topology": "Ring(8,100)",
      "backend": "flow",
      "fault": {"seed": 11, "horizon_ns": 80000000000,
                "npu_mtbf_ns": 40000000000, "npu_mttr_ns": 200000000},
      "cluster": {
        "checkpoint": {"interval_ns": 100000000, "cost_ns": 10000000,
                       "restart_delay_ns": 5000000},
        "jobs": [{"name": "train", "size": 8,
                  "workload": {"kind": "hybrid", "model": "gpt3",
                               "sim_layers": 2, "iterations": 4}}]
      }
    })json"));

    // The first five probes are the fixed-interval grid, Young/Daly
    // x {1/4, 1/2, 1, 2, 4}.
    const double grid_goodput[] = {0.646428, 0.648312, 0.636183,
                                   0.636746, 0.637068};
    const double grid_interval[] = {79056941.504, 158113883.008,
                                    316227766.017, 632455532.034,
                                    1264911064.067};
    ASSERT_GE(t.probes.size(), 5u);
    double best_grid = 0.0;
    for (size_t i = 0; i < 5; ++i) {
        EXPECT_NEAR(t.probes[i].goodput, grid_goodput[i], 5e-7) << i;
        EXPECT_NEAR(t.probes[i].intervalNs, grid_interval[i], 5e-4) << i;
        best_grid = std::max(best_grid, t.probes[i].goodput);
    }
    EXPECT_NEAR(t.goodput, 0.648562, 5e-7);
    EXPECT_NEAR(t.intervalNs, 186223097.7, 5e-4);
    EXPECT_NEAR(t.youngDalyNs, 316227766.017, 5e-4);
    // The tuned interval never loses to the grid and, with independent
    // failures, stays within one octave of the closed form.
    EXPECT_GE(t.goodput, best_grid);
    EXPECT_LE(std::fabs(std::log2(t.intervalNs / t.youngDalyNs)), 1.0);
}

TEST(CheckpointTuner, YoungDalySeedValidatesItsInputs)
{
    // No fault scenario at all.
    json::Value no_fault = json::parse(R"json({
      "topology": "Ring(4,100)", "backend": "analytical",
      "cluster": {
        "checkpoint": {"interval_ns": 10000, "cost_ns": 500},
        "jobs": [{"name": "j", "size": 4,
                  "workload": {"kind": "collective",
                               "collective": "all-reduce",
                               "bytes": 1048576}}]}
    })json");
    EXPECT_THROW(youngDalySeed(no_fault), FatalError);

    // Scheduled-only faults: no MTBF to derive a rate from.
    json::Value sched = faultyClusterDoc();
    applyOverride(sched, "fault", json::parse(R"({"schedule":
        [{"at_ns": 1000, "kind": "npu_fail", "npu": 1}]})"));
    EXPECT_THROW(youngDalySeed(sched), FatalError);

    // Zero checkpoint cost: Young/Daly degenerates.
    json::Value free_ckpt = faultyClusterDoc();
    applyOverride(free_ckpt, "cluster.checkpoint.cost_ns",
                  json::Value(int64_t{0}));
    EXPECT_THROW(youngDalySeed(free_ckpt), FatalError);
}

TEST(ResilienceStudy, RunsVariantsAndValidatesKeys)
{
    json::Object study;
    study["name"] = json::Value(std::string("mini"));
    study["config"] = faultyClusterDoc();
    study["seeds"] = json::Value(int64_t{2});
    json::Array placements;
    placements.push_back(json::Value(std::string("contiguous")));
    placements.push_back(json::Value(std::string("anti_affinity")));
    study["placements"] = json::Value(std::move(placements));

    json::Value report =
        runResilienceStudy(json::Value(study), /*threads=*/2);
    EXPECT_EQ(report.at("study").asString(), "mini");
    EXPECT_EQ(report.at("seeds").asInt(), 2);
    const json::Array &variants = report.at("variants").asArray();
    ASSERT_EQ(variants.size(), 2u);
    for (const json::Value &v : variants) {
        EXPECT_TRUE(v.has("placement"));
        EXPECT_GT(v.at("mean_goodput").asNumber(), 0.0);
        EXPECT_GE(v.at("p95_goodput").asNumber(),
                  v.at("mean_goodput").asNumber() * 0.5);
        EXPECT_GT(v.at("mean_availability").asNumber(), 0.0);
        EXPECT_EQ(v.at("failures").asInt(), 0);
    }
    // The full per-row store rides along for downstream analysis.
    EXPECT_EQ(report.at("results").at("rows").asArray().size(), 4u);

    // Unknown keys and malformed fields are user errors.
    study["typo"] = json::Value(true);
    EXPECT_THROW(runResilienceStudy(json::Value(study), 1),
                 FatalError);
    EXPECT_THROW(runResilienceStudy(json::parse(R"({"seeds": 2})"), 1),
                 FatalError);
}

TEST(ResilienceStudy, FaultAwarePlacementBeatsObliviousAtTheCommittedMeans)
{
    // NPUs {0,1} form a flaky rack with a long repair time. One 4-NPU
    // job on 8 NPUs, so the placement genuinely chooses between the
    // flaky half and the quiet half. Mean metrics over 4 fault seeds.
    auto variant = [](const char *placement, const char *restart,
                      int64_t spares) {
        json::Value base = json::parse(R"json({
          "topology": "Switch(8,100)",
          "backend": "flow",
          "fault": {"seed": 3, "horizon_ns": 80000000000,
                    "domains": [{"name": "flakyrack", "npus": [0, 1],
                                 "mtbf_ns": 5000000000,
                                 "mttr_ns": 2500000000}]},
          "cluster": {
            "checkpoint": {"interval_ns": 200000000, "cost_ns": 1000000,
                           "restart_delay_ns": 5000000},
            "jobs": [{"name": "train", "size": 4,
                      "workload": {"kind": "hybrid", "model": "gpt3",
                                   "sim_layers": 2, "iterations": 4}}]
          }
        })json");
        applyOverride(base, "cluster.placement",
                      json::Value(std::string(placement)));
        applyOverride(base, "cluster.checkpoint.restart",
                      json::Value(std::string(restart)));
        if (spares > 0)
            applyOverride(base, "cluster.spares", json::Value(spares));
        json::Object doc;
        doc["name"] = json::Value(std::string(placement));
        doc["base"] = base;
        doc["seeds"] = json::Value(int64_t{4});
        SweepSpec spec = SweepSpec::fromJson(json::Value(std::move(doc)));
        return ResultStore::fromBatch(spec, runBatch(spec, BatchOptions{}));
    };
    struct Expect
    {
        double goodput, availability, blastRadius, spareUtilization;
    };
    auto expectMeans = [](const ResultStore &store, const Expect &e) {
        EXPECT_NEAR(store.mean(Metric::Goodput), e.goodput, 5e-7);
        EXPECT_NEAR(store.mean(Metric::Availability), e.availability,
                    5e-7);
        EXPECT_NEAR(store.mean(Metric::BlastRadius), e.blastRadius, 5e-7);
        EXPECT_NEAR(store.mean(Metric::SpareUtilization),
                    e.spareUtilization, 5e-7);
    };

    // The oblivious contiguous baseline parks the job on the flaky
    // rack and waits out every outage; avoid_degraded dodges the rack;
    // spare restart patches the dead members from a reserved pool.
    ResultStore oblivious = variant("contiguous", "same", 0);
    ResultStore avoid = variant("avoid_degraded", "same", 0);
    ResultStore spare = variant("contiguous", "spare", 2);
    expectMeans(oblivious, {0.499835, 0.67668, 1.0, 0.0});
    expectMeans(avoid, {0.743952, 1.0, 0.0, 0.0});
    expectMeans(spare, {0.737057, 0.999924, 0.091239, 0.935788});
    EXPECT_GT(avoid.mean(Metric::Goodput),
              oblivious.mean(Metric::Goodput));
    EXPECT_GT(spare.mean(Metric::Goodput),
              oblivious.mean(Metric::Goodput));
}

TEST(ResilienceStudy, SampleStudyRunsWithoutFailures)
{
    std::string path = "/tmp/astra_test_resilience_sample.json";
    writeSampleResilienceStudy(path);
    json::Value doc = json::parseFile(path);
    std::remove(path.c_str());
    // The cluster scenario `fault` of tests/cluster/golden/ is this
    // sample's config, so ClusterGolden and smoke_cluster_runner cover
    // it too.
    EXPECT_EQ(doc.at("config").dump(2),
              json::parseFile(std::string(ASTRA_TEST_DIR) +
                              "/cluster/golden/fault.json")
                  .dump(2));

    json::Value report = runResilienceStudy(doc, /*threads=*/2);
    EXPECT_GE(report.at("seeds").asInt(), 1);
    const json::Array &variants = report.at("variants").asArray();
    EXPECT_FALSE(variants.empty());
    for (const json::Value &v : variants) {
        EXPECT_EQ(v.at("failures").asInt(), 0);
        EXPECT_GT(v.at("mean_goodput").asNumber(), 0.0);
        EXPECT_LE(v.at("mean_goodput").asNumber(), 1.0);
    }
}

} // namespace
} // namespace sweep
} // namespace astra
