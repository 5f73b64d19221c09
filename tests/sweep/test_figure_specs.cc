/**
 * @file
 * The paper's figure specs (examples/figures/, docs/sweep.md "Paper
 * figures"). Every spec must parse and expand to its recorded row
 * count, so a spec cannot silently change shape. The cheap ones run in
 * full here and assert the shapes their figures claim; the rest are
 * run with `sweep_runner`.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <utility>

#include "collective/estimate.h"
#include "common/units.h"
#include "sweep/result_store.h"
#include "topology/notation.h"

namespace astra {
namespace sweep {
namespace {

const std::string kFigureDir =
    std::string(ASTRA_TEST_DIR) + "/../examples/figures/";

/** Rows per spec. A new spec needs a line here. */
const std::map<std::string, size_t> kRows = {
    {"fig9a_allreduce", 12}, {"fig9a_dlrm", 12},  {"fig9a_gpt3", 12},
    {"fig9a_t1t", 12},       {"fig9b_allreduce", 7}, {"fig9b_dlrm", 7},
    {"fig9b_gpt3", 7},       {"fig9b_t1t", 7},    {"fig11", 3},
    {"table4", 7},           {"table5", 40},      {"ablation_chunks", 8},
    {"ablation_collectives", 18},
};

/** Run a figure spec on all hardware threads; every row must pass. */
ResultStore
runFigure(const std::string &name)
{
    SweepSpec spec = SweepSpec::fromFile(kFigureDir + name + ".json");
    BatchOptions opts;
    opts.threads = 0;
    BatchOutcome outcome = runBatch(spec, opts);
    EXPECT_EQ(outcome.failures, 0u) << name;
    return ResultStore::fromBatch(spec, std::move(outcome));
}

TimeNs
total(const ResultStore &store, size_t i)
{
    return store.value(i, Metric::TotalTime);
}

TEST(FigureSpecs, EachExpandsToItsRecordedRowCount)
{
    size_t seen = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(kFigureDir)) {
        if (entry.path().extension() != ".json")
            continue;
        std::string name = entry.path().stem().string();
        auto it = kRows.find(name);
        ASSERT_NE(it, kRows.end()) << name << ".json has no row count";
        SweepSpec spec = SweepSpec::fromFile(entry.path().string());
        EXPECT_EQ(spec.configCount(), it->second) << name;
        for (size_t i = 0; i < spec.configCount(); ++i)
            topologyFromJson(spec.config(i).doc.at("topology"));
        ++seen;
    }
    EXPECT_EQ(seen, kRows.size());
}

TEST(FigureSpecs, Fig9aThemisHelpsMultiDimSystemsOnly)
{
    // Rows: six systems, each baseline then themis.
    ResultStore store = runFigure("fig9a_allreduce");
    ASSERT_EQ(store.rows(), 12u);
    for (size_t sys = 0; sys < 6; ++sys) {
        TimeNs base = total(store, 2 * sys);
        TimeNs themis = total(store, 2 * sys + 1);
        const std::string &label = store.row(2 * sys).config.label;
        EXPECT_LT(themis, base) << label;
        if (sys < 3) { // W-1D: one dimension, little to reorder.
            EXPECT_GT(themis, base * 0.9) << label;
        } else { // W-2D, Conv-3D, Conv-4D gain heavily.
            EXPECT_LT(themis, base * 0.75) << label;
        }
    }
    // With Themis, Conv-4D nears the equal-bandwidth (600 GB/s) wafer,
    // within the margin CaseStudyScheduling allows.
    EXPECT_LT(total(store, 11), total(store, 4) * 1.5);
}

TEST(FigureSpecs, Fig11PoolMatchesZeroInfinityAndFusionWins)
{
    ResultStore store = runFigure("fig11");
    ASSERT_EQ(store.rows(), 3u);
    TimeNs zero = total(store, 0), base = total(store, 1),
           opt = total(store, 2);
    // Equivalent resources: within a fraction of a percent.
    EXPECT_NEAR(zero, base, base * 0.01);
    for (size_t i = 0; i < 2; ++i) {
        const RuntimeBreakdown &b = store.row(i).report.average;
        EXPECT_GT(b.exposedComm, 0.9 * total(store, i)) << i;
    }
    // In-switch fusion: the paper reports 4.6x; this model gives 2.51x.
    EXPECT_LT(opt, base / 2.0);
    EXPECT_EQ(store.row(2).report.average.exposedRemoteMem, 0.0);
}

TEST(FigureSpecs, Table4ScaleOutFlatWaferScalingFaster)
{
    // Rows: 2_8_8_{4,8,16,32}, then {4,8,16}_8_8_4.
    ResultStore store = runFigure("table4");
    ASSERT_EQ(store.rows(), 7u);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(total(store, i), 4732674.912, 1e-3) << i;
    for (size_t i = 4; i < 7; ++i)
        EXPECT_LT(total(store, i), total(store, i - 1)) << i;
    // The paper's wafer rows peak at 2.51x; these reach 2.19x.
    EXPECT_GT(total(store, 0) / total(store, 6), 2.0);
    EXPECT_LT(total(store, 0) / total(store, 6), 2.51);
}

TEST(FigureSpecs, ChunkingHasDiminishingReturnsTowardTheBottleneck)
{
    // Rows: 1, 2, 4, ..., 128 chunks.
    ResultStore store = runFigure("ablation_chunks");
    ASSERT_EQ(store.rows(), 8u);
    CollectiveRequest probe =
        CollectiveRequest::overDims(CollectiveType::AllReduce, 1e9);
    probe.chunks = 64;
    CollectiveEstimate est =
        estimateCollective(parseTopology("conv4d"), probe);
    EXPECT_LT(total(store, 0), est.sequential);
    for (size_t i = 1; i < store.rows(); ++i) {
        EXPECT_LT(total(store, i), total(store, i - 1)) << i;
        EXPECT_GT(total(store, i), est.bottleneck) << i;
        if (i >= 2) {
            EXPECT_LT(total(store, i - 1) - total(store, i),
                      total(store, i - 2) - total(store, i - 1))
                << i;
        }
    }
    EXPECT_LT(total(store, 7), est.bottleneck * 1.01);
}

} // namespace
} // namespace sweep
} // namespace astra
