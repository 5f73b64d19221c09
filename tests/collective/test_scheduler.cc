/** @file Unit tests for baseline vs Themis dimension ordering. */
#include <gtest/gtest.h>

#include "collective/scheduler.h"
#include "topology/notation.h"

namespace astra {
namespace {

TEST(Scheduler, BaselineAlwaysCanonicalOrder)
{
    Topology topo = parseTopology("conv4d");
    CollectiveScheduler sched(topo);
    std::vector<GroupDim> groups = wholeTopologyGroups(topo);
    for (int c = 0; c < 8; ++c) {
        std::vector<GroupDim> order = sched.nextOrder(
            groups, CollectiveType::AllReduce, 1e6,
            SchedPolicy::Baseline);
        for (int d = 0; d < 4; ++d)
            EXPECT_EQ(order[size_t(d)].dim, d);
    }
}

TEST(Scheduler, ThemisRotatesAwayFromLoadedDims)
{
    Topology topo = parseTopology("conv4d");
    CollectiveScheduler sched(topo);
    std::vector<GroupDim> groups = wholeTopologyGroups(topo);
    // First chunk: all loads zero -> canonical order; it loads dim 0
    // most (in time terms dims differ), so later chunks must start
    // with other dims at least once.
    std::vector<int> first_dims;
    for (int c = 0; c < 16; ++c) {
        std::vector<GroupDim> order = sched.nextOrder(
            groups, CollectiveType::AllReduce, 1e8, SchedPolicy::Themis);
        first_dims.push_back(order[0].dim);
    }
    bool rotated = false;
    for (int d : first_dims)
        if (d != first_dims[0])
            rotated = true;
    EXPECT_TRUE(rotated);
}

TEST(Scheduler, ThemisBalancesLoadAcrossDims)
{
    Topology topo = parseTopology("conv4d");
    std::vector<GroupDim> groups = wholeTopologyGroups(topo);

    CollectiveScheduler base(topo);
    CollectiveScheduler themis(topo);
    for (int c = 0; c < 64; ++c) {
        base.nextOrder(groups, CollectiveType::AllReduce, 1e8,
                       SchedPolicy::Baseline);
        themis.nextOrder(groups, CollectiveType::AllReduce, 1e8,
                         SchedPolicy::Themis);
    }
    auto spread = [](const std::vector<TimeNs> &loads) {
        double lo = loads[0], hi = loads[0];
        for (double l : loads) {
            lo = std::min(lo, l);
            hi = std::max(hi, l);
        }
        return hi / std::max(lo, 1.0);
    };
    // Themis keeps the busiest dimension's load materially lower.
    double base_max = *std::max_element(base.loads().begin(),
                                        base.loads().end());
    double themis_max = *std::max_element(themis.loads().begin(),
                                          themis.loads().end());
    EXPECT_LT(themis_max, base_max * 0.9);
    EXPECT_LT(spread(themis.loads()), spread(base.loads()));
}

TEST(Scheduler, SingleDimHasNothingToReorder)
{
    Topology topo({{BlockType::Switch, 512, 350.0, 500.0}});
    CollectiveScheduler sched(topo);
    std::vector<GroupDim> groups = wholeTopologyGroups(topo);
    std::vector<GroupDim> order = sched.nextOrder(
        groups, CollectiveType::AllReduce, 1e9, SchedPolicy::Themis);
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0].dim, 0);
}

TEST(Scheduler, ResetLoadsClearsHistory)
{
    Topology topo = parseTopology("conv4d");
    CollectiveScheduler sched(topo);
    sched.nextOrder(wholeTopologyGroups(topo), CollectiveType::AllReduce,
                    1e8, SchedPolicy::Themis);
    sched.resetLoads();
    for (TimeNs l : sched.loads())
        EXPECT_DOUBLE_EQ(l, 0.0);
}

} // namespace
} // namespace astra
