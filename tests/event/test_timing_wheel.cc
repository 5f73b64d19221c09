/**
 * @file
 * Timing-wheel tests for the event core: a differential hold model
 * against a (when, insertion) reference queue that crosses every
 * wheel level and the heap, the memory contract (the queue's footprint
 * follows pending events, not bucket history), and the queue-regime
 * counters, including the share of a Table V sweep row's events that
 * reaches the heap.
 */
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "astra/simulator.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "event/event_queue.h"
#include "sweep/spec.h"

namespace astra {
namespace {

/**
 * The hold model's scheduling decisions, shared by the queue under
 * test and the reference so both see the same event stream as long as
 * they fire in the same order. Every fired event schedules 0-3
 * successors at log-uniform distances from 1 ns to 200 s (one in
 * eight at zero delay); one in 512 also schedules a burst of 256
 * exact ties.
 */
class HoldModel
{
  public:
    using Sink = std::function<void(TimeNs when, uint64_t label)>;

    HoldModel(uint64_t seed, uint64_t budget) : rng_(seed), budget_(budget)
    {
    }

    /** The next label; call once per scheduled event. */
    uint64_t newLabel() { return nextLabel_++; }

    void
    fire(TimeNs now, const Sink &schedule)
    {
        if (nextLabel_ >= budget_)
            return;
        int successors = static_cast<int>(rng_.uniformInt(0, 3));
        for (int i = 0; i < successors; ++i) {
            TimeNs delay = rng_.uniformInt(0, 7) == 0 ? 0.0 : distance();
            schedule(now + delay, newLabel());
        }
        if (rng_.uniformInt(0, 511) == 0) {
            TimeNs when = now + distance();
            for (int i = 0; i < 256; ++i)
                schedule(when, newLabel());
        }
    }

    /** A log-uniform distance in [1 ns, 200 s]. */
    TimeNs
    distance()
    {
        return std::exp(rng_.uniform(0.0, std::log(200.0 * kSec)));
    }

  private:
    Rng rng_;
    uint64_t budget_;
    uint64_t nextLabel_ = 0;
};

struct Fired
{
    TimeNs when;
    uint64_t label;
    bool operator==(const Fired &) const = default;
};

/** runUntil() stop points and the events scheduled into each gap. */
struct GapPlan
{
    explicit GapPlan(uint64_t seed) : rng(seed) {}

    Rng rng;
    /** The next stop and how many gap events follow it. */
    std::pair<TimeNs, int>
    nextStop(TimeNs now)
    {
        TimeNs stop = now + std::exp(rng.uniform(0.0, std::log(100.0 *
                                                              kSec)));
        return {stop, static_cast<int>(rng.uniformInt(0, 4))};
    }
    /** A gap event's distance past the stop. */
    TimeNs gapOffset() { return rng.uniform(0.0, 1e4); }
};

constexpr int kSeeds = 6;
constexpr int kInitial = 64;
constexpr uint64_t kBudget = 60000;
constexpr int kStops = 40;

std::vector<Fired>
runWheel(uint64_t seed, TimeNs width)
{
    EventQueue eq(width);
    HoldModel model(seed, kBudget);
    GapPlan gaps(seed ^ 0x5a5a);
    std::vector<Fired> fired;
    std::function<void(TimeNs, uint64_t)> schedule;
    schedule = [&](TimeNs when, uint64_t label) {
        eq.scheduleAt(when, [&, label] {
            fired.push_back({eq.now(), label});
            model.fire(eq.now(), schedule);
        });
    };
    for (int i = 0; i < kInitial; ++i)
        schedule(model.distance(), model.newLabel());
    for (int s = 0; s < kStops && !eq.empty(); ++s) {
        auto [stop, count] = gaps.nextStop(eq.now());
        eq.runUntil(stop);
        for (int i = 0; i < count; ++i)
            schedule(stop + gaps.gapOffset(), model.newLabel());
    }
    eq.run();
    return fired;
}

/** The same model on an ordered set keyed by (when, insertion). */
std::vector<Fired>
runReference(uint64_t seed)
{
    struct Pending
    {
        TimeNs when;
        uint64_t seq;
        uint64_t label;
        bool
        operator<(const Pending &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };
    std::set<Pending> queue;
    uint64_t seq = 0;
    TimeNs now = 0.0;
    HoldModel model(seed, kBudget);
    GapPlan gaps(seed ^ 0x5a5a);
    std::vector<Fired> fired;
    HoldModel::Sink schedule = [&](TimeNs when, uint64_t label) {
        queue.insert({when, seq++, label});
    };
    auto fireUpTo = [&](TimeNs until) {
        while (!queue.empty() && queue.begin()->when <= until) {
            Pending p = *queue.begin();
            queue.erase(queue.begin());
            now = p.when;
            fired.push_back({now, p.label});
            model.fire(now, schedule);
        }
    };
    for (int i = 0; i < kInitial; ++i)
        schedule(model.distance(), model.newLabel());
    for (int s = 0; s < kStops && !queue.empty(); ++s) {
        auto [stop, count] = gaps.nextStop(now);
        fireUpTo(stop);
        now = std::max(now, stop);
        for (int i = 0; i < count; ++i)
            schedule(stop + gaps.gapOffset(), model.newLabel());
    }
    fireUpTo(INFINITY);
    return fired;
}

TEST(TimingWheel, HoldModelMatchesReferenceOrder)
{
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        std::vector<Fired> expected = runReference(seed);
        ASSERT_GT(expected.size(), kBudget / 2) << seed;
        // 64 ns ticks reach ~68.7 s before the heap; 4 ns ticks put
        // more of the 200 s range into the heap.
        for (TimeNs width : {64.0, 4.0}) {
            std::vector<Fired> got = runWheel(seed, width);
            ASSERT_EQ(got.size(), expected.size()) << seed << " " << width;
            for (size_t i = 0; i < got.size(); ++i)
                ASSERT_EQ(got[i], expected[i])
                    << "seed " << seed << " width " << width
                    << " event " << i;
        }
    }
}

TEST(TimingWheel, HoldModelCrossesEveryLevel)
{
    EventQueue eq;
    QueueProfile prof;
    eq.setProfile(&prof);
    HoldModel model(7, kBudget);
    std::function<void(TimeNs, uint64_t)> schedule;
    schedule = [&](TimeNs when, uint64_t) {
        eq.scheduleAt(when, [&] { model.fire(eq.now(), schedule); });
    };
    for (int i = 0; i < kInitial; ++i)
        schedule(model.distance(), model.newLabel());
    eq.run();
    for (size_t level = 0; level < 4; ++level)
        EXPECT_GT(prof.timedByLevel[level], 0u) << level;
    EXPECT_GT(prof.movedDown, 0u);
    EXPECT_GT(prof.bucketSorts, 0u);
}

TEST(TimingWheel, RegimeCountersFollowPlacement)
{
    // At 64 ns ticks: 1 us is in the current block (level 0), 1 ms
    // later in the same superblock (level 1), 1 s within 1023
    // superblocks (level 2), 100 s beyond (heap). Moves down: 1 ms
    // once (1 -> 0), 1 s twice (2 -> 1 -> 0), 100 s twice (heap -> 1
    // -> 0, since it lands in the first superblock of its new range).
    EventQueue eq;
    QueueProfile prof;
    eq.setProfile(&prof);
    std::vector<int> order;
    eq.scheduleAt(100.0 * kSec, [&] { order.push_back(3); });
    eq.scheduleAt(1.0 * kSec, [&] { order.push_back(2); });
    eq.scheduleAt(1e6, [&] { order.push_back(1); });
    eq.scheduleAt(1e3, [&] { order.push_back(0); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(prof.timedByLevel, (std::array<uint64_t, 4>{1, 1, 1, 1}));
    EXPECT_EQ(prof.movedDown, 5u);
    EXPECT_EQ(prof.bucketActivations, 4u);
    EXPECT_EQ(prof.bucketSorts, 0u);
}

TEST(TimingWheel, ActivationsFollowBucketDrains)
{
    // Bucket activations are a reported count (event.bucket_activations
    // in the benchmark) with a fixed definition: once a time's run
    // reaches the end of its bucket, the bucket counts as drained and a
    // later schedule into the same tick activates it again; otherwise
    // the schedule joins the live bucket.
    auto activations = [](bool laterEntry) {
        EventQueue eq;
        QueueProfile prof;
        eq.setProfile(&prof);
        std::vector<int> order;
        eq.scheduleAt(100.0, [&] {
            order.push_back(0);
            eq.scheduleAt(110.0, [&] { order.push_back(2); });
        });
        eq.scheduleAt(100.0, [&] { order.push_back(1); });
        if (laterEntry)
            eq.scheduleAt(120.0, [&] { order.push_back(3); });
        eq.run();
        EXPECT_EQ(order.size(), laterEntry ? 4u : 3u);
        for (size_t i = 0; i < order.size(); ++i)
            EXPECT_EQ(order[i], static_cast<int>(i));
        return prof.bucketActivations;
    };
    EXPECT_EQ(activations(false), 2u);
    EXPECT_EQ(activations(true), 1u);

    // A schedule into the gap after runUntil() re-bases the wheel; the
    // bucket it had already activated for 1 s activates again later.
    EventQueue eq;
    QueueProfile prof;
    eq.setProfile(&prof);
    eq.scheduleAt(10.0, [] {});
    eq.scheduleAt(1e9, [] {});
    eq.runUntil(1000.0);
    eq.scheduleAt(2000.0, [] {});
    eq.scheduleAt(5e8, [] {});
    eq.run();
    EXPECT_EQ(prof.bucketActivations, 5u);
}

TEST(TimingWheel, FootprintFollowsPendingEvents)
{
    // 16 waves of 8192 same-timestamp events 1 us apart; the first
    // event of each wave schedules the whole next wave. Buckets that
    // kept their peak capacity would hold 16 x 8192 entries here; the
    // slab holds about two waves.
    constexpr int kWaves = 16;
    constexpr size_t kWave = 8192;
    EventQueue eq;
    size_t peak = 0;
    std::function<void(int)> scheduleWave = [&](int wave) {
        TimeNs when = 1000.0 * (wave + 1);
        for (size_t i = 0; i < kWave; ++i) {
            bool first = i == 0;
            eq.scheduleAt(when, [&, wave, first] {
                if (first && wave + 1 < kWaves)
                    scheduleWave(wave + 1);
                peak = std::max(peak, eq.pending());
            });
        }
        peak = std::max(peak, eq.pending());
    };
    scheduleWave(0);
    eq.run();
    EXPECT_EQ(eq.executedEvents(), kWaves * kWave);
    // An entry is the timestamp, the insertion number and the callback.
    const size_t entry = sizeof(TimeNs) + sizeof(uint64_t) +
                         sizeof(InlineEvent);
    EXPECT_GE(peak, 2 * kWave - 1);
    EXPECT_LE(eq.bytesInUse(), 2 * peak * entry)
        << "peak pending " << peak;
}

TEST(TimingWheel, SweepRowKeepsHeapShareBelowOnePercent)
{
    // One Table V HierMem row (MoE-1T, 4 simulated layers, pooled
    // remote memory) spans seconds of simulated time; the wheel's
    // levels cover ~68.7 s, so almost nothing reaches the heap.
    setLogLevel(LogLevel::Warn);
    json::Value doc = json::parse(R"json({
      "topology": "Switch(16,300,300)_Switch(16,25,700)",
      "backend": "analytical",
      "system": {
        "peak_tflops": 2048,
        "local_memory": {"bandwidth_gbps": 4096},
        "remote_memory": {"kind": "pooled",
                          "in_node_fabric_bw_gbps": 256,
                          "gpu_side_bw_gbps": 256,
                          "remote_group_bw_gbps": 100}
      },
      "workload": {"kind": "moe", "model": "moe1t", "sim_layers": 4,
                   "param_path": "fused"},
      "trace": {"detail": "spans"}
    })json");
    sweep::MaterializedConfig mat = sweep::materializeConfig(doc);
    Simulator sim(std::move(mat.topo), std::move(mat.cfg));
    Report report = sim.run(mat.workload);

    auto counter = [&](const char *name) {
        auto it = report.traceCounters.find(name);
        return it == report.traceCounters.end() ? 0.0 : it->second;
    };
    double timed = counter("queue_timed_level0") +
                   counter("queue_timed_level1") +
                   counter("queue_timed_level2") +
                   counter("queue_timed_heap");
    ASSERT_GT(timed, 1e5);
    EXPECT_LT(counter("queue_timed_heap"), 0.01 * timed);
    EXPECT_GT(report.totalTime, 1.0 * kSec);
}

} // namespace
} // namespace astra
