/** @file Unit tests for multi-rail phase construction (§II-B.2). */
#include <gtest/gtest.h>

#include "collective/phases.h"
#include "topology/notation.h"

namespace astra {
namespace {

TEST(Phases, AlgorithmSelectionMatchesTableI)
{
    EXPECT_EQ(algorithmFor(BlockType::Ring, 8), PhaseAlgorithm::Ring);
    EXPECT_EQ(algorithmFor(BlockType::FullyConnected, 8),
              PhaseAlgorithm::Direct);
    EXPECT_EQ(algorithmFor(BlockType::Switch, 8),
              PhaseAlgorithm::HalvingDoubling);
    // Non-power-of-two switch groups fall back to Direct.
    EXPECT_EQ(algorithmFor(BlockType::Switch, 6), PhaseAlgorithm::Direct);
}

TEST(Phases, AllReduceIsRsAscendingThenAgDescending)
{
    Topology topo = parseTopology("conv4d");
    std::vector<Phase> phases = buildPhases(
        topo, CollectiveType::AllReduce, 1024.0,
        wholeTopologyGroups(topo));
    ASSERT_EQ(phases.size(), 8u);
    // RS ascending: dims 0,1,2,3.
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(phases[size_t(i)].op, PhaseOp::ReduceScatter);
        EXPECT_EQ(phases[size_t(i)].group.dim, i);
    }
    // AG descending: dims 3,2,1,0.
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(phases[size_t(4 + i)].op, PhaseOp::AllGather);
        EXPECT_EQ(phases[size_t(4 + i)].group.dim, 3 - i);
    }
}

TEST(Phases, WorkingSetShrinksAndGrows)
{
    Topology topo = parseTopology("conv4d");
    std::vector<Phase> phases = buildPhases(
        topo, CollectiveType::AllReduce, 1024.0,
        wholeTopologyGroups(topo));
    // RS tensors: 1024, 512, 64, 8. AG tensors mirror: 8, 64, 512, 1024.
    EXPECT_DOUBLE_EQ(phases[0].tensorBytes, 1024.0);
    EXPECT_DOUBLE_EQ(phases[1].tensorBytes, 512.0);
    EXPECT_DOUBLE_EQ(phases[2].tensorBytes, 64.0);
    EXPECT_DOUBLE_EQ(phases[3].tensorBytes, 8.0);
    EXPECT_DOUBLE_EQ(phases[4].tensorBytes, 8.0);
    EXPECT_DOUBLE_EQ(phases[5].tensorBytes, 64.0);
    EXPECT_DOUBLE_EQ(phases[6].tensorBytes, 512.0);
    EXPECT_DOUBLE_EQ(phases[7].tensorBytes, 1024.0);
}

TEST(Phases, PureAllGatherRunsDescending)
{
    Topology topo = parseTopology("conv4d");
    std::vector<Phase> phases =
        buildPhases(topo, CollectiveType::AllGather, 1024.0,
                    wholeTopologyGroups(topo));
    ASSERT_EQ(phases.size(), 4u);
    EXPECT_EQ(phases[0].group.dim, 3);
    EXPECT_EQ(phases[3].group.dim, 0);
    // Shard grows from 1024/512 = 2 upward: 8, 64, 512, 1024.
    EXPECT_DOUBLE_EQ(phases[0].tensorBytes, 8.0);
    EXPECT_DOUBLE_EQ(phases[1].tensorBytes, 64.0);
    EXPECT_DOUBLE_EQ(phases[2].tensorBytes, 512.0);
    EXPECT_DOUBLE_EQ(phases[3].tensorBytes, 1024.0);
}

TEST(Phases, ReduceScatterOnly)
{
    Topology topo = parseTopology("conv4d");
    std::vector<Phase> phases =
        buildPhases(topo, CollectiveType::ReduceScatter, 512.0,
                    wholeTopologyGroups(topo));
    ASSERT_EQ(phases.size(), 4u);
    EXPECT_EQ(phases.back().group.dim, 3);
    EXPECT_DOUBLE_EQ(phases.back().tensorBytes, 512.0 / (2 * 8 * 8));
}

TEST(Phases, AllToAllKeepsFullWorkingSet)
{
    Topology topo = parseTopology("conv4d");
    std::vector<Phase> phases =
        buildPhases(topo, CollectiveType::AllToAll, 256.0,
                    wholeTopologyGroups(topo));
    ASSERT_EQ(phases.size(), 4u);
    for (const Phase &p : phases)
        EXPECT_DOUBLE_EQ(p.tensorBytes, 256.0);
}

TEST(Phases, SentBytesFormula)
{
    Phase p;
    p.group = GroupDim{0, 8, 1};
    p.tensorBytes = 800.0;
    p.algorithm = PhaseAlgorithm::Ring;
    EXPECT_DOUBLE_EQ(phaseSentBytes(p), 700.0);
    EXPECT_EQ(phaseSteps(p), 7);
    p.algorithm = PhaseAlgorithm::Direct;
    EXPECT_EQ(phaseSteps(p), 1);
    p.algorithm = PhaseAlgorithm::HalvingDoubling;
    EXPECT_EQ(phaseSteps(p), 3);
}

TEST(Phases, SizeOneDimsAreSkipped)
{
    Topology topo({{BlockType::Ring, 1, 100.0, 1.0},
                   {BlockType::Switch, 4, 50.0, 1.0}});
    std::vector<Phase> phases = buildPhases(
        topo, CollectiveType::AllReduce, 100.0,
        wholeTopologyGroups(topo));
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases[0].group.dim, 1);
    EXPECT_EQ(phases[1].group.dim, 1);
}

TEST(Phases, SubDimensionGroups)
{
    // MP=16 inside Switch(512): one phase over the 16-wide factor.
    Topology topo({{BlockType::Switch, 512, 350.0, 500.0}});
    CollectiveRequest req;
    req.type = CollectiveType::AllReduce;
    req.bytes = 1024.0;
    req.groups = {GroupDim{0, 16, 1}};
    std::vector<GroupDim> groups = normalizedGroups(topo, req);
    std::vector<Phase> phases =
        buildPhases(topo, req.type, req.bytes, groups);
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases[0].group.size, 16);
    EXPECT_EQ(phases[0].algorithm, PhaseAlgorithm::HalvingDoubling);
    EXPECT_DOUBLE_EQ(phases[1].tensorBytes, 1024.0);
}

} // namespace
} // namespace astra
