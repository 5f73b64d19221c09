/** @file Unit tests for the discrete-event simulation core. */
#include <gtest/gtest.h>

#include <vector>

#include "common/logging.h"
#include "event/event_queue.h"

namespace astra {
namespace {

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30.0, [&] { order.push_back(3); });
    eq.schedule(10.0, [&] { order.push_back(1); });
    eq.schedule(20.0, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(eq.now(), 30.0);
}

TEST(EventQueue, StableForEqualTimestamps)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5.0, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    std::vector<double> times;
    eq.schedule(1.0, [&] {
        times.push_back(eq.now());
        eq.schedule(2.0, [&] {
            times.push_back(eq.now());
            eq.schedule(3.0, [&] { times.push_back(eq.now()); });
        });
    });
    eq.run();
    ASSERT_EQ(times.size(), 3u);
    EXPECT_DOUBLE_EQ(times[0], 1.0);
    EXPECT_DOUBLE_EQ(times[1], 3.0);
    EXPECT_DOUBLE_EQ(times[2], 6.0);
}

TEST(EventQueue, RunUntilLeavesLaterEventsQueued)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10.0, [&] { ++fired; });
    eq.schedule(20.0, [&] { ++fired; });
    eq.schedule(30.0, [&] { ++fired; });
    eq.runUntil(20.0);
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(eq.now(), 20.0);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1.0, [&] { ++fired; });
    eq.schedule(2.0, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ZeroDelayFiresAtCurrentTime)
{
    EventQueue eq;
    eq.schedule(5.0, [&] {
        eq.schedule(0.0, [&] { EXPECT_DOUBLE_EQ(eq.now(), 5.0); });
    });
    eq.run();
    EXPECT_DOUBLE_EQ(eq.now(), 5.0);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 42; ++i)
        eq.schedule(double(i), [] {});
    eq.run();
    EXPECT_EQ(eq.executedEvents(), 42u);
}

TEST(EventQueue, ScheduleIntoGapAfterRunUntil)
{
    // runUntil() stopping inside a gap must not prevent later events
    // from being scheduled between `until` and the next pending event
    // (the bucket window has already advanced to the far event).
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(10.0, [&] { order.push_back(0); });
    eq.scheduleAt(1e9, [&] { order.push_back(3); });
    eq.runUntil(1000.0);
    EXPECT_DOUBLE_EQ(eq.now(), 1000.0);
    // Both inside the gap, one far beyond the original window.
    eq.scheduleAt(2000.0, [&] { order.push_back(1); });
    eq.scheduleAt(5e8, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_DOUBLE_EQ(eq.now(), 1e9);
}

TEST(EventQueue, ReserveDoesNotDisturbPending)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(3.0, [&] { ++fired; });
    eq.reserve(4096);
    eq.schedule(1.0, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ResetClearsState)
{
    EventQueue eq;
    eq.schedule(10.0, [] {});
    eq.run();
    eq.reset();
    EXPECT_DOUBLE_EQ(eq.now(), 0.0);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executedEvents(), 0u);
}

TEST(EventQueue, WidthNeverChangesFiringOrder)
{
    // The tick width is a pure performance knob: a shuffled workload
    // with ties, same-tick neighbours and far-apart events fires in the
    // identical order at 4, 64 and 4096 ns ticks.
    auto trace = [](TimeNs width) {
        EventQueue eq(width);
        EXPECT_DOUBLE_EQ(eq.bucketWidth(), width);
        std::vector<int> order;
        for (int i = 0; i < 512; ++i) {
            TimeNs when = double((i * 7919) % 500) * 13.0;
            if (i % 7 == 0)
                when += 1e9 * double(i % 5);
            eq.scheduleAt(when, [&order, i] { order.push_back(i); });
        }
        eq.run();
        return order;
    };
    std::vector<int> base = trace(64.0);
    ASSERT_EQ(base.size(), 512u);
    EXPECT_EQ(trace(4.0), base);
    EXPECT_EQ(trace(4096.0), base);
}

TEST(EventQueue, TimesPastTheTickRangeAreUserErrors)
{
    // A tick must fit an int64_t. The rejected event is not counted,
    // and the queue still runs what it holds, up to the range's edge.
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(0x1p62 * eq.bucketWidth(), [&] { ++fired; });
    EXPECT_THROW(eq.scheduleAt(0x1p63 * eq.bucketWidth(), [] {}),
                 FatalError);
    EXPECT_THROW(eq.schedule(1e300, [] {}), FatalError);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 0x1p62 * eq.bucketWidth());
}

} // namespace
} // namespace astra
