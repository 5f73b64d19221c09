/**
 * @file
 * Placement-layer unit tests: slice decomposition, job topologies,
 * contiguous/spread/explicit/scored search, free-pool accounting.
 */
#include <gtest/gtest.h>

#include "cluster/placement.h"
#include "common/logging.h"
#include "topology/notation.h"

namespace astra {
namespace cluster {
namespace {

Topology
conv4d()
{
    // Ring(2)_FC(4)_Ring(4)_Switch(2) = 64 NPUs.
    return parseTopology("Ring(2,250)_FC(4,200)_Ring(4,100)_Switch(2,50)");
}

TEST(SliceTopology, WholeClusterIsIdentity)
{
    Topology topo = conv4d();
    Topology job = sliceTopology(topo, 64);
    EXPECT_EQ(job.notation(), topo.notation());
    EXPECT_EQ(job.npus(), 64);
}

TEST(SliceTopology, PrefixSlice)
{
    Topology topo = conv4d();
    Topology job = sliceTopology(topo, 8); // Ring(2) x FC(4).
    EXPECT_EQ(job.numDims(), 2);
    EXPECT_EQ(job.dim(0).size, 2);
    EXPECT_EQ(job.dim(1).size, 4);
    EXPECT_EQ(job.npus(), 8);
}

TEST(SliceTopology, PartialDimensionKeepsBlockTypeAndLinks)
{
    Topology topo = conv4d();
    Topology job = sliceTopology(topo, 16); // Ring(2)_FC(4)_Ring(2).
    EXPECT_EQ(job.numDims(), 3);
    EXPECT_EQ(job.dim(2).type, BlockType::Ring);
    EXPECT_EQ(job.dim(2).size, 2);
    EXPECT_DOUBLE_EQ(job.dim(2).bandwidth, 100.0);
    EXPECT_EQ(job.npus(), 16);
}

TEST(SliceTopology, SingleNpuJobGetsDegenerateDimension)
{
    Topology topo = conv4d();
    Topology job = sliceTopology(topo, 1);
    EXPECT_EQ(job.npus(), 1);
    EXPECT_EQ(job.numDims(), 1);
}

TEST(SliceTopology, IncompatibleSizesAreUserErrors)
{
    Topology topo = conv4d();
    EXPECT_FALSE(sliceCompatible(topo, 3));  // does not divide P_j.
    EXPECT_FALSE(sliceCompatible(topo, 24)); // c=3 does not divide 4.
    EXPECT_FALSE(sliceCompatible(topo, 65)); // larger than cluster.
    EXPECT_TRUE(sliceCompatible(topo, 2));
    EXPECT_TRUE(sliceCompatible(topo, 32));
    EXPECT_THROW(sliceTopology(topo, 3), FatalError);
}

TEST(PlacementManager, ContiguousBlocksAreAlignedAndDisjoint)
{
    Topology topo = parseTopology("Ring(4,100)_Switch(4,50)"); // 16.
    PlacementManager mgr(topo);
    auto a = mgr.tryPlace(4, PlacementPolicy::Contiguous);
    auto b = mgr.tryPlace(4, PlacementPolicy::Contiguous);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->globalOf, (std::vector<NpuId>{0, 1, 2, 3}));
    EXPECT_EQ(b->globalOf, (std::vector<NpuId>{4, 5, 6, 7}));
    EXPECT_EQ(a->dimMap, (std::vector<int>{0}));
    EXPECT_EQ(mgr.freeCount(), 8);

    // Release the first block; the next placement reuses it (first
    // fit keeps the pool compact).
    mgr.release(*a);
    auto c = mgr.tryPlace(4, PlacementPolicy::Contiguous);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->globalOf.front(), 0);
}

TEST(PlacementManager, ContiguousExhaustionReturnsNullopt)
{
    Topology topo = parseTopology("Ring(8,100)");
    PlacementManager mgr(topo);
    ASSERT_TRUE(mgr.tryPlace(4, PlacementPolicy::Contiguous));
    ASSERT_TRUE(mgr.tryPlace(4, PlacementPolicy::Contiguous));
    EXPECT_FALSE(mgr.tryPlace(4, PlacementPolicy::Contiguous));
    EXPECT_EQ(mgr.freeCount(), 0);
}

TEST(PlacementManager, SpreadStripesTheSplitDimension)
{
    Topology topo = parseTopology("Ring(16,100)");
    PlacementManager mgr(topo);
    auto a = mgr.tryPlace(8, PlacementPolicy::Spread);
    ASSERT_TRUE(a);
    // c=8 of 16 coordinates, stride 2, first free offset 0.
    EXPECT_EQ(a->globalOf,
              (std::vector<NpuId>{0, 2, 4, 6, 8, 10, 12, 14}));
    auto b = mgr.tryPlace(8, PlacementPolicy::Spread);
    ASSERT_TRUE(b);
    EXPECT_EQ(b->globalOf,
              (std::vector<NpuId>{1, 3, 5, 7, 9, 11, 13, 15}));
    EXPECT_EQ(mgr.freeCount(), 0);
}

TEST(PlacementManager, SpreadRespectsInnerDimensions)
{
    // 2x8: a 4-NPU spread job takes whole Ring(2) columns striped
    // across the outer ring.
    Topology topo = parseTopology("Ring(2,250)_Ring(8,100)");
    PlacementManager mgr(topo);
    auto a = mgr.tryPlace(4, PlacementPolicy::Spread);
    ASSERT_TRUE(a);
    // c = 2 outer coords of 8, stride 4: coords {0, 4} -> ids
    // {0,1, 8,9}.
    EXPECT_EQ(a->globalOf, (std::vector<NpuId>{0, 1, 8, 9}));
    EXPECT_EQ(a->dimMap, (std::vector<int>{0, 1}));
}

TEST(PlacementManager, ExplicitValidatesAndClaims)
{
    Topology topo = parseTopology("Ring(8,100)");
    PlacementManager mgr(topo);
    auto a = mgr.tryPlaceExplicit({1, 3, 5, 7});
    ASSERT_TRUE(a);
    EXPECT_TRUE(a->dimMap.empty()); // unaligned: kAutoRoute.
    EXPECT_TRUE(mgr.isBusy(3));
    EXPECT_FALSE(mgr.tryPlaceExplicit({0, 3})); // 3 busy.
    EXPECT_THROW(mgr.tryPlaceExplicit({0, 0}), FatalError);
    EXPECT_THROW(mgr.tryPlaceExplicit({0, 8}), FatalError);
}

TEST(PlacementManager, SpreadBlockedByAFragmentingTenant)
{
    // A contiguous block on a flat ring intersects *every* stripe
    // offset, so a spread placement must report "no fit" rather than
    // claim a partially-busy stripe.
    Topology topo = parseTopology("Ring(16,100)");
    PlacementManager mgr(topo);
    ASSERT_TRUE(mgr.tryPlace(4, PlacementPolicy::Contiguous));
    EXPECT_FALSE(mgr.tryPlace(4, PlacementPolicy::Spread));
}

TEST(PlacementManager, ScoredSearchPicksTheCheapestFreeCandidate)
{
    // Ring(16): a 4-NPU job has four aligned blocks {b..b+3} and four
    // stripes {a, a+4, a+8, a+12}.
    Topology topo = parseTopology("Ring(16,100)");
    auto contiguous_run = [](const std::vector<NpuId> &ids) {
        return ids[1] - ids[0] == 1 ? 1.0 : 0.0;
    };
    auto constant = [](const std::vector<NpuId> &) { return 7.0; };

    // A scorer that prefers stripes makes anti-affinity pick the
    // stripe Spread picks; NPU 0 is down in both.
    PlacementManager spread(topo), anti(topo);
    spread.markFaulted(0, true);
    anti.markFaulted(0, true);
    auto s = spread.tryPlace(4, PlacementPolicy::Spread);
    auto a = anti.tryPlace(4, PlacementPolicy::AntiAffinity,
                           contiguous_run);
    ASSERT_TRUE(s && a);
    EXPECT_EQ(s->globalOf, (std::vector<NpuId>{1, 5, 9, 13}));
    EXPECT_EQ(a->globalOf, s->globalOf);

    // Under a constant scorer, avoid-degraded takes Contiguous's block.
    PlacementManager contig(topo), avoid(topo);
    contig.markFaulted(2, true);
    avoid.markFaulted(2, true);
    auto c = contig.tryPlace(4, PlacementPolicy::Contiguous);
    auto d = avoid.tryPlace(4, PlacementPolicy::AvoidDegraded, constant);
    ASSERT_TRUE(c && d);
    EXPECT_EQ(c->globalOf, (std::vector<NpuId>{4, 5, 6, 7}));
    EXPECT_EQ(d->globalOf, c->globalOf);

    // Blocks at 4 and 8 tie for the lowest score: the earlier wins.
    PlacementManager tie(topo);
    auto t = tie.tryPlace(
        4, PlacementPolicy::AvoidDegraded,
        [](const std::vector<NpuId> &ids) {
            return ids[0] == 4 || ids[0] == 8 ? 0.0 : 1.0;
        });
    ASSERT_TRUE(t);
    EXPECT_EQ(t->globalOf, (std::vector<NpuId>{4, 5, 6, 7}));

    // Block 0 is busy and NPU 9 is down, so only the blocks at 4 and
    // 12 are scored: every stripe crosses the busy block.
    PlacementManager partial(topo);
    ASSERT_TRUE(partial.tryPlace(4, PlacementPolicy::Contiguous));
    partial.markFaulted(9, true);
    std::vector<std::vector<NpuId>> scored;
    auto p = partial.tryPlace(
        4, PlacementPolicy::AntiAffinity,
        [&scored](const std::vector<NpuId> &ids) {
            scored.push_back(ids);
            return 0.0;
        });
    ASSERT_TRUE(p);
    EXPECT_EQ(p->globalOf, (std::vector<NpuId>{4, 5, 6, 7}));
    EXPECT_EQ(scored, (std::vector<std::vector<NpuId>>{
                          {4, 5, 6, 7}, {12, 13, 14, 15}}));
}

TEST(PlacementManager, DescribeSummaries)
{
    Topology topo = parseTopology("Ring(16,100)");
    PlacementManager contig_mgr(topo);
    auto a = contig_mgr.tryPlace(4, PlacementPolicy::Contiguous);
    ASSERT_TRUE(a);
    EXPECT_EQ(a->describe(), "contiguous[0..3]");
    PlacementManager spread_mgr(topo);
    auto b = spread_mgr.tryPlace(4, PlacementPolicy::Spread);
    ASSERT_TRUE(b);
    EXPECT_EQ(b->describe().substr(0, 7), "spread{");
}

TEST(PlacementPolicyNames, RoundTrip)
{
    EXPECT_EQ(parsePlacementPolicy("contiguous"),
              PlacementPolicy::Contiguous);
    EXPECT_EQ(parsePlacementPolicy("spread"), PlacementPolicy::Spread);
    EXPECT_EQ(parsePlacementPolicy("striped"), PlacementPolicy::Spread);
    EXPECT_EQ(parsePlacementPolicy("explicit"),
              PlacementPolicy::Explicit);
    EXPECT_THROW(parsePlacementPolicy("best-fit"), FatalError);
}

} // namespace
} // namespace cluster
} // namespace astra
