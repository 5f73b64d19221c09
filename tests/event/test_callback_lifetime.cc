/**
 * @file Pending callbacks are destroyed exactly once when their queue
 * is destroyed or reset, wherever they wait: the now-FIFO, the active
 * bucket, wheel levels 0, 1 and 2, or the heap. The slab holds raw
 * storage, so this is the queue's own bookkeeping, not a container's.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <utility>

#include "common/units.h"
#include "event/event_queue.h"

namespace astra {
namespace {

/** A capture that counts its destruction; a moved-from copy does not
 *  count, so `*destroyed` is the number of live captures destroyed. */
template <size_t Pad> struct Counted
{
    explicit Counted(int *d) : destroyed(d) {}
    Counted(Counted &&other) noexcept
        : destroyed(other.destroyed), owner(std::exchange(other.owner, false))
    {
    }
    Counted(const Counted &) = delete;
    ~Counted()
    {
        if (owner)
            ++*destroyed;
    }
    void operator()() {}

    int *destroyed;
    bool owner = true;
    std::array<unsigned char, Pad> pad{};
};

using InlineCapture = Counted<8>;
using PooledCapture = Counted<128>;

/** Leave one inline and one pooled capture in every place a pending
 *  event can wait; returns the number of captures left pending. */
int
fillEveryPlace(EventQueue &eq, int *destroyed)
{
    auto both = [&](TimeNs when) {
        eq.scheduleAt(when, InlineCapture(destroyed));
        eq.scheduleAt(when, PooledCapture(destroyed));
    };
    // The first event at 100 ns fires; the two behind it stay in the
    // active bucket.
    eq.scheduleAt(100.0, [] {});
    both(100.0);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.now(), 100.0);
    both(eq.now());         // now-FIFO
    both(1e3);              // level 0 (this block)
    both(1e6);              // level 1 (this superblock)
    both(1.0 * kSec);       // level 2
    both(100.0 * kSec);     // heap
    return 12;
}

TEST(CallbackLifetime, CapturesAreInlineAndPooled)
{
    int destroyed = 0;
    EXPECT_TRUE(InlineEvent(InlineCapture(&destroyed)).isInline());
    EXPECT_FALSE(InlineEvent(PooledCapture(&destroyed)).isInline());
    EXPECT_EQ(destroyed, 2);
}

TEST(CallbackLifetime, EveryPlaceIsReached)
{
    int destroyed = 0;
    EventQueue eq;
    QueueProfile prof;
    eq.setProfile(&prof);
    int pending = fillEveryPlace(eq, &destroyed);
    EXPECT_EQ(eq.pending(), static_cast<size_t>(pending));
    // Three at 100 ns and two at 1 us in level 0; two each in levels
    // 1 and 2 and in the heap (the now-FIFO is not a timed schedule).
    EXPECT_EQ(prof.timedByLevel, (std::array<uint64_t, 4>{5, 2, 2, 2}));
    EXPECT_EQ(destroyed, 0);
    eq.setProfile(nullptr);
}

TEST(CallbackLifetime, DestroyingTheQueueDestroysEachCaptureOnce)
{
    const size_t pool_before = CallbackPool::outstanding();
    int destroyed = 0;
    int pending = 0;
    {
        EventQueue eq;
        pending = fillEveryPlace(eq, &destroyed);
        EXPECT_EQ(CallbackPool::outstanding(), pool_before + 6);
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, pending);
    EXPECT_EQ(CallbackPool::outstanding(), pool_before);
}

TEST(CallbackLifetime, ResetDestroysEachCaptureOnceAndKeepsTheQueueUsable)
{
    const size_t pool_before = CallbackPool::outstanding();
    int destroyed = 0;
    EventQueue eq;
    int pending = fillEveryPlace(eq, &destroyed);
    eq.reset();
    EXPECT_EQ(destroyed, pending);
    EXPECT_EQ(CallbackPool::outstanding(), pool_before);
    EXPECT_EQ(eq.pending(), 0u);

    // The reused slab takes a second fill, which the destructor drops.
    pending += fillEveryPlace(eq, &destroyed);
    bool fired = false;
    eq.scheduleAt(eq.now() + 10.0, [&fired] { fired = true; });
    eq.runUntil(eq.now() + 20.0);
    EXPECT_TRUE(fired);
    eq.reset();
    EXPECT_EQ(destroyed, pending);
    EXPECT_EQ(CallbackPool::outstanding(), pool_before);
}

TEST(CallbackLifetime, FiredCapturesAreDestroyedOnce)
{
    // The same fill run to completion: captures move between levels
    // and through the active bucket, and each is destroyed once.
    const size_t pool_before = CallbackPool::outstanding();
    int destroyed = 0;
    EventQueue eq;
    int pending = fillEveryPlace(eq, &destroyed);
    eq.run();
    EXPECT_EQ(destroyed, pending);
    EXPECT_EQ(CallbackPool::outstanding(), pool_before);
}

} // namespace
} // namespace astra
