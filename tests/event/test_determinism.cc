/**
 * @file
 * Determinism regression tests for the event core.
 *
 * The documented guarantee: events fire in nondecreasing time, equal
 * timestamps fire in insertion order, and two identical runs produce
 * byte-identical execution traces. These tests exercise the bucketed
 * queue's corner cases directly — equal-timestamp runs, nested
 * zero-delay scheduling, the far-future overflow heap, window
 * advancement — and cross-check against a plain stable sort.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "collective/engine.h"
#include "common/rng.h"
#include "event/event_queue.h"
#include "network/network_api.h"
#include "topology/topology.h"

namespace astra {
namespace {

using namespace astra::literals;

/** One executed event in a recorded trace. */
struct TraceEntry
{
    TimeNs when;
    uint64_t label;
    bool operator==(const TraceEntry &) const = default;
};

/**
 * Pseudo-random self-scheduling workload: every event may schedule
 * up to three follow-ups spanning the zero-delay FIFO, the near
 * window, and the overflow heap. Returns the full execution trace.
 */
std::vector<TraceEntry>
runChaosWorkload(uint64_t seed, int initial, int max_events)
{
    EventQueue eq;
    Rng rng(seed);
    std::vector<TraceEntry> trace;
    int budget = max_events;
    uint64_t next_label = 0;

    // Delay palette: FIFO hit, same-bucket, near window, window edge,
    // far overflow.
    auto pick_delay = [&rng]() -> TimeNs {
        switch (rng.uniformInt(0, 4)) {
          case 0: return 0.0;
          case 1: return rng.uniform(0.0, 64.0);
          case 2: return rng.uniform(64.0, 10000.0);
          case 3: return rng.uniform(10000.0, 70000.0);
          default: return rng.uniform(70000.0, 5.0 * kSec);
        }
    };

    struct Ctx
    {
        EventQueue &eq;
        Rng &rng;
        std::vector<TraceEntry> &trace;
        int &budget;
        uint64_t &next_label;
        std::function<void(uint64_t)> fire;
        std::function<TimeNs()> pick;
    };
    Ctx ctx{eq, rng, trace, budget, next_label, {}, pick_delay};
    ctx.fire = [&ctx](uint64_t label) {
        ctx.trace.push_back({ctx.eq.now(), label});
        if (ctx.budget <= 0)
            return;
        int fanout = static_cast<int>(ctx.rng.uniformInt(0, 3));
        for (int i = 0; i < fanout && ctx.budget > 0; ++i) {
            --ctx.budget;
            uint64_t child = ctx.next_label++;
            ctx.eq.schedule(ctx.pick(),
                            [&ctx, child] { ctx.fire(child); });
        }
    };

    for (int i = 0; i < initial; ++i) {
        --budget;
        uint64_t label = next_label++;
        eq.schedule(pick_delay(), [&ctx, label] { ctx.fire(label); });
    }
    eq.run();
    return trace;
}

TEST(EventCoreDeterminism, IdenticalRunsProduceIdenticalTraces)
{
    std::vector<TraceEntry> a = runChaosWorkload(0xA5A5, 64, 20000);
    std::vector<TraceEntry> b = runChaosWorkload(0xA5A5, 64, 20000);
    ASSERT_GT(a.size(), 10000u);
    EXPECT_EQ(a, b);

    // Time never decreases.
    for (size_t i = 1; i < a.size(); ++i)
        EXPECT_GE(a[i].when, a[i - 1].when);
}

TEST(EventCoreDeterminism, FinalStateMatchesAcrossRuns)
{
    EventQueue q1, q2;
    for (EventQueue *eq : {&q1, &q2}) {
        Rng rng(7);
        for (int i = 0; i < 5000; ++i)
            eq->schedule(rng.uniform(0.0, 1.0 * kSec), [] {});
        eq->run();
    }
    EXPECT_DOUBLE_EQ(q1.now(), q2.now());
    EXPECT_EQ(q1.executedEvents(), q2.executedEvents());
    EXPECT_EQ(q1.executedEvents(), 5000u);
}

TEST(EventCoreDeterminism, MatchesStableSortReference)
{
    // Schedule everything up front, then verify the firing order is
    // exactly a stable sort by time (ties resolved by insertion).
    Rng rng(0xBEEF);
    const int n = 20000;
    std::vector<TimeNs> when(n);
    for (int i = 0; i < n; ++i) {
        // Coarse quantization forces plenty of exact ties.
        when[static_cast<size_t>(i)] =
            double(rng.uniformInt(0, 500)) * 123.0 +
            (rng.uniformInt(0, 3) == 0 ? 2.0 * kSec : 0.0);
    }

    EventQueue eq;
    std::vector<int> fired;
    fired.reserve(n);
    for (int i = 0; i < n; ++i)
        eq.scheduleAt(when[static_cast<size_t>(i)],
                      [&fired, i] { fired.push_back(i); });
    eq.run();

    std::vector<int> expected(n);
    std::iota(expected.begin(), expected.end(), 0);
    std::stable_sort(expected.begin(), expected.end(),
                     [&when](int a, int b) {
                         return when[static_cast<size_t>(a)] <
                                when[static_cast<size_t>(b)];
                     });
    EXPECT_EQ(fired, expected);
}

TEST(EventCoreDeterminism, CollectiveRunsAreReproducible)
{
    // End-to-end: two simulations of the same collective produce the
    // same finish time, event count, and traffic accounting.
    Topology topo({{BlockType::Ring, 4, 56.0, 500.0},
                   {BlockType::Switch, 8, 25.0, 700.0}});
    CollectiveRequest req =
        CollectiveRequest::overDims(CollectiveType::AllReduce, 8_MiB);
    req.chunks = 4;

    TimeNs finish[2];
    uint64_t events[2];
    std::vector<double> sent[2];
    for (int r = 0; r < 2; ++r) {
        EventQueue eq;
        auto net =
            makeNetwork(NetworkBackendKind::Analytical, eq, topo);
        CollectiveEngine engine(*net);
        CollectiveRunResult res = runCollective(engine, req);
        finish[r] = res.finish;
        events[r] = eq.executedEvents();
        sent[r] = res.sentPerDim;
    }
    EXPECT_EQ(finish[0], finish[1]);
    EXPECT_EQ(events[0], events[1]);
    EXPECT_EQ(sent[0], sent[1]);
}

TEST(EventCoreDeterminism, Collective4096MatchesTheAnchor)
{
    // The event-core bench's end-to-end anchor: 1.48M events on a
    // 4096-NPU torus, analytical backend.
    bench::CollectiveResult r = bench::runTorusAllReduce(16);
    EXPECT_NEAR(r.time, 64200.945, 5e-4);
    EXPECT_EQ(r.events, 1478656u);

    // §IV-C's speed gap on the 64-NPU torus: the packet backend at 64 B
    // packets, the stand-in for a flit-level simulator, runs over 400x
    // the analytical backend's events for the same All-Reduce.
    bench::CollectiveResult a = bench::runTorusAllReduce(4);
    bench::CollectiveResult p =
        bench::runTorusAllReduce(4, NetworkBackendKind::Packet, 64.0);
    EXPECT_EQ(a.events, 4672u);
    EXPECT_EQ(p.events, 1972288u);
    EXPECT_GT(double(p.events), 400.0 * double(a.events));
}

TEST(EventCoreStress, MillionEventsWithTiesAndOverflow)
{
    // 1M events: heavy same-timestamp batches (FIFO + run promotion),
    // near-window spread, and a far-future overflow tail that forces
    // repeated window re-basing.
    EventQueue eq;
    eq.reserve(1 << 16);
    const int kBatches = 1000;
    const int kPerBatch = 800;   // same-timestamp ties.
    const int kScattered = 150000;
    const int kFar = 50000;
    uint64_t executed_payload = 0;
    std::vector<int> batch_order;
    batch_order.reserve(kPerBatch);

    Rng rng(0x5EED);
    for (int b = 0; b < kBatches; ++b) {
        TimeNs t = double(b) * 333.33;
        for (int i = 0; i < kPerBatch; ++i) {
            eq.scheduleAt(t, [&executed_payload, &batch_order, b, i] {
                ++executed_payload;
                if (b == 499)
                    batch_order.push_back(i);
            });
        }
    }
    for (int i = 0; i < kScattered; ++i) {
        eq.schedule(rng.uniform(0.0, 400000.0),
                    [&executed_payload] { ++executed_payload; });
    }
    for (int i = 0; i < kFar; ++i) {
        // Well past the bucket window: exercises the overflow heap and
        // its migration on window advance.
        eq.schedule(rng.uniform(1.0 * kSec, 50.0 * kSec),
                    [&executed_payload] { ++executed_payload; });
    }

    uint64_t total = uint64_t(kBatches) * kPerBatch + kScattered + kFar;
    EXPECT_EQ(eq.pending(), total);
    eq.run();
    EXPECT_EQ(eq.executedEvents(), total);
    EXPECT_EQ(executed_payload, total);

    // Ties fired in insertion order.
    ASSERT_EQ(batch_order.size(), static_cast<size_t>(kPerBatch));
    for (int i = 0; i < kPerBatch; ++i)
        EXPECT_EQ(batch_order[static_cast<size_t>(i)], i);
}

TEST(EventCoreStress, ResetAfterHeavyLoadIsReusable)
{
    EventQueue eq;
    for (int i = 0; i < 100000; ++i)
        eq.schedule(double(i % 977) * 41.0, [] {});
    eq.runUntil(10000.0);
    EXPECT_GT(eq.pending(), 0u);
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_DOUBLE_EQ(eq.now(), 0.0);
    EXPECT_EQ(eq.executedEvents(), 0u);

    // The queue keeps working (and stays ordered) after reset.
    std::vector<int> order;
    eq.schedule(5.0, [&order] { order.push_back(1); });
    eq.schedule(1.0, [&order] { order.push_back(0); });
    eq.schedule(1.0 * kSec, [&order] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

} // namespace
} // namespace astra
