/**
 * @file
 * Reproduction test for Table IV's per-dimension message sizes.
 *
 * The paper reports, for a 1 GB All-Gather on the wafer-baseline
 * topologies, the per-dimension message sizes in MB (in+out traffic
 * per NPU). These values are fully determined by the hierarchical
 * multi-rail algorithm, so our implementation must match them
 * EXACTLY (the paper uses binary megabytes: 1 GB = 1024 MB).
 */
#include <gtest/gtest.h>

#include "collective/phases.h"
#include "common/units.h"
#include "topology/notation.h"

namespace astra {
namespace {

/** The Table IV baseline: Conv-4D with dim 1 raised to 1000 GB/s to
 *  model the on-wafer dimension, shape dim1_8_8_dim4. */
Topology
table4Topology(int dim1, int dim4)
{
    return parseTopology("Ring(" + std::to_string(dim1) +
                         ",1000)_FC(8,200)_Ring(8,100)_Switch(" +
                         std::to_string(dim4) + ",50)");
}

struct Row
{
    int dim1;
    int dim4;
    int npus;
    double mb[4]; // paper's per-dim message sizes (MB).
};

// Table IV, all seven rows.
const Row kTable4[] = {
    {2, 4, 512, {1024.0, 896.0, 112.0, 12.0}},
    {2, 8, 1024, {1024.0, 896.0, 112.0, 14.0}},
    {2, 16, 2048, {1024.0, 896.0, 112.0, 15.0}},
    {2, 32, 4096, {1024.0, 896.0, 112.0, 15.5}},
    {4, 4, 1024, {1536.0, 448.0, 56.0, 6.0}},
    {8, 4, 2048, {1792.0, 224.0, 28.0, 3.0}},
    {16, 4, 4096, {1920.0, 112.0, 14.0, 1.5}},
};

class Table4MessageSizes : public testing::TestWithParam<Row>
{
};

TEST_P(Table4MessageSizes, MatchesPaperExactly)
{
    const Row &row = GetParam();
    Topology topo = table4Topology(row.dim1, row.dim4);
    ASSERT_EQ(topo.npus(), row.npus);

    std::vector<Bytes> sent =
        perDimSentBytes(topo, CollectiveType::AllGather, 1.0 * kGiB,
                        wholeTopologyGroups(topo));
    for (int d = 0; d < 4; ++d) {
        // Paper reports in+out bytes per NPU == 2x sent bytes.
        double mb = 2.0 * sent[size_t(d)] / kMiB;
        EXPECT_NEAR(mb, row.mb[d], 1e-9)
            << "dim " << (d + 1) << " of " << topo.shapeString();
    }
}

INSTANTIATE_TEST_SUITE_P(AllRows, Table4MessageSizes,
                         testing::ValuesIn(kTable4));

TEST(Table4, ScaleOutRowsShareNonNicTraffic)
{
    // Rows 1-4 differ only in the NIC dimension: dims 1-3 identical.
    for (int dim4 : {8, 16, 32}) {
        Topology a = table4Topology(2, 4);
        Topology b = table4Topology(2, dim4);
        std::vector<Bytes> sa =
            perDimSentBytes(a, CollectiveType::AllGather, 1.0 * kGiB,
                            wholeTopologyGroups(a));
        std::vector<Bytes> sb =
            perDimSentBytes(b, CollectiveType::AllGather, 1.0 * kGiB,
                            wholeTopologyGroups(b));
        for (int d = 0; d < 3; ++d)
            EXPECT_DOUBLE_EQ(sa[size_t(d)], sb[size_t(d)]);
    }
}

TEST(Table4, WaferScalingShiftsLoadOnChip)
{
    // Growing dim 1 concentrates traffic there and shrinks dims 2-4
    // proportionally (the mechanism behind the 2.51x speedup).
    std::vector<Bytes> base =
        perDimSentBytes(table4Topology(2, 4), CollectiveType::AllGather,
                        1.0 * kGiB,
                        wholeTopologyGroups(table4Topology(2, 4)));
    std::vector<Bytes> wafer =
        perDimSentBytes(table4Topology(8, 4), CollectiveType::AllGather,
                        1.0 * kGiB,
                        wholeTopologyGroups(table4Topology(8, 4)));
    EXPECT_GT(wafer[0], base[0]);
    for (int d = 1; d < 4; ++d)
        EXPECT_LT(wafer[size_t(d)], base[size_t(d)]);
    EXPECT_DOUBLE_EQ(wafer[1] * 4.0, base[1]);
    EXPECT_DOUBLE_EQ(wafer[2] * 4.0, base[2]);
    EXPECT_DOUBLE_EQ(wafer[3] * 4.0, base[3]);
}

TEST(Table4, AllReducePerDimLoadIsTwiceAllGather)
{
    // The measured collective time in Table IV is for All-Reduce,
    // whose RS + AG phases each move the All-Gather loads.
    Topology topo = table4Topology(2, 4);
    std::vector<Bytes> ag =
        perDimSentBytes(topo, CollectiveType::AllGather, 1.0 * kGiB,
                        wholeTopologyGroups(topo));
    std::vector<Bytes> ar =
        perDimSentBytes(topo, CollectiveType::AllReduce, 1.0 * kGiB,
                        wholeTopologyGroups(topo));
    for (int d = 0; d < 4; ++d)
        EXPECT_DOUBLE_EQ(ar[size_t(d)], 2.0 * ag[size_t(d)]);
}

} // namespace
} // namespace astra
