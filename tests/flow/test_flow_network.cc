/**
 * @file
 * FlowNetwork behaviour tests: closed-form agreement when
 * uncongested, exact max-min fair sharing under contention (1/2 and
 * 1/N rates, bandwidth redistribution on departure), event-driven
 * re-rating, simRecv matching, per-link utilization stats, slot
 * recycling, and byte-identical determinism. The flow-vs-packet bench
 * scenarios (bench/bench_util.h) hold their committed simulated times,
 * event counts and incremental-solver counters on both backends.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "event/event_queue.h"
#include "network/analytical.h"
#include "network/detailed/packet_network.h"
#include "network/flow/flow_network.h"

namespace astra {
namespace {

using namespace astra::literals;

/** Deliver one message and return its delivery time. */
TimeNs
oneSend(NetworkApi &net, EventQueue &eq, NpuId src, NpuId dst,
        Bytes bytes, int dim)
{
    TimeNs delivered = -1.0;
    SendHandlers h;
    h.onDelivered = [&] { delivered = eq.now(); };
    net.simSend(src, dst, bytes, dim, kNoTag, std::move(h));
    eq.run();
    return delivered;
}

TEST(FlowNetwork, UncongestedRingMatchesAnalyticalClosedForm)
{
    Topology topo({{BlockType::Ring, 8, 100.0, 300.0}});
    Bytes bytes = 1_MB;

    EventQueue eq_a;
    AnalyticalNetwork a(eq_a, topo);
    TimeNs t_a = oneSend(a, eq_a, 0, 3, bytes, 0);

    EventQueue eq_f;
    FlowNetwork f(eq_f, topo);
    TimeNs t_f = oneSend(f, eq_f, 0, 3, bytes, 0);

    EXPECT_NEAR(t_f, t_a, kTimeEpsNs);
    EXPECT_NEAR(t_f, bytes / 100.0 + 3 * 300.0, kTimeEpsNs);
}

TEST(FlowNetwork, UncongestedSwitchMatchesAnalyticalClosedForm)
{
    // The fluid model serializes once at the bottleneck (no
    // store-and-forward double serialization), exactly like the
    // analytical equation.
    Topology topo({{BlockType::Switch, 8, 150.0, 400.0}});
    Bytes bytes = 1_MB;

    EventQueue eq_a;
    AnalyticalNetwork a(eq_a, topo);
    TimeNs t_a = oneSend(a, eq_a, 0, 5, bytes, 0);

    EventQueue eq_f;
    FlowNetwork f(eq_f, topo);
    TimeNs t_f = oneSend(f, eq_f, 0, 5, bytes, 0);

    EXPECT_NEAR(t_f, t_a, kTimeEpsNs);
    EXPECT_NEAR(t_f, bytes / 150.0 + 2 * 400.0, kTimeEpsNs);
}

TEST(FlowNetwork, AutoRouteMatchesAnalyticalAcrossDimensions)
{
    // Dimension-ordered multi-dim route: the flow's max-min rate is
    // the bottleneck link bandwidth, and hop latencies add up — the
    // analytical closed form, reproduced by the solver.
    Topology topo({{BlockType::Ring, 4, 150.0, 500.0},
                   {BlockType::Switch, 2, 50.0, 700.0}});
    Bytes bytes = 4_MB;
    NpuId src = 0, dst = 5; // one ring hop + through the switch.

    EventQueue eq_a;
    AnalyticalNetwork a(eq_a, topo);
    TimeNs t_a = oneSend(a, eq_a, src, dst, bytes, kAutoRoute);

    EventQueue eq_f;
    FlowNetwork f(eq_f, topo);
    TimeNs t_f = oneSend(f, eq_f, src, dst, bytes, kAutoRoute);

    EXPECT_NEAR(t_f, t_a, kTimeEpsNs);
    EXPECT_NEAR(t_f, bytes / 50.0 + 500.0 + 2 * 700.0, kTimeEpsNs);
}

TEST(FlowNetwork, TwoFlowsSharingALinkGetHalfBandwidthEach)
{
    Topology topo({{BlockType::Switch, 4, 100.0, 0.0}});
    EventQueue eq;
    FlowNetwork net(eq, topo);
    Bytes bytes = 1_MB;

    std::vector<TimeNs> delivered;
    for (NpuId src : {1, 2}) {
        SendHandlers h;
        h.onDelivered = [&delivered, &eq] {
            delivered.push_back(eq.now());
        };
        net.simSend(src, 0, bytes, 0, kNoTag, std::move(h));
    }
    eq.run();

    // Both flows share the down-link into NPU 0: exactly bw/2 each.
    ASSERT_EQ(delivered.size(), 2u);
    EXPECT_DOUBLE_EQ(delivered[0], 2.0 * bytes / 100.0);
    EXPECT_DOUBLE_EQ(delivered[1], 2.0 * bytes / 100.0);
}

TEST(FlowNetwork, SwitchIncastScalesAsOneOverN)
{
    const int kSenders = 16;
    Topology topo({{BlockType::Switch, kSenders + 1, 100.0, 0.0}});
    EventQueue eq;
    FlowNetwork net(eq, topo);
    Bytes bytes = 1_MB;

    int done = 0;
    TimeNs last = 0.0;
    for (NpuId src = 1; src <= kSenders; ++src) {
        SendHandlers h;
        h.onDelivered = [&] {
            ++done;
            last = std::max(last, eq.now());
        };
        net.simSend(src, 0, bytes, 0, kNoTag, std::move(h));
    }
    eq.run();

    EXPECT_EQ(done, kSenders);
    // All N share the destination's down-link: each gets exactly
    // bw/N, so the incast completes at N * (bytes / bw).
    EXPECT_DOUBLE_EQ(last, kSenders * bytes / 100.0);
    // The whole incast needs ONE max-min solve: the same-timestamp
    // arrivals batch into a single deferred re-rate, and the
    // departure batch leaves no flows behind to re-rate.
    EXPECT_EQ(net.solveCount(), 1u);
}

TEST(FlowNetwork, MaxMinRedistributesHeadroomAcrossBottlenecks)
{
    // Classic water-filling scenario on Ring(4), latency 0, bw 90:
    //   A: 0 -> 2 (links 0->1 and 1->2), B: 0 -> 1, C, D: 1 -> 2.
    // Link 1->2 is the first bottleneck (A, C, D -> 30 each); B then
    // soaks up the leftover on 0->1 (90 - 30 = 60).
    Topology topo({{BlockType::Ring, 4, 90.0, 0.0}});
    EventQueue eq;
    FlowNetwork net(eq, topo);
    Bytes bytes = 900.0 * kKB;

    TimeNs t_a = -1, t_b = -1, t_c = -1, t_d = -1;
    auto send = [&](NpuId src, NpuId dst, TimeNs *out) {
        SendHandlers h;
        h.onDelivered = [out, &eq] { *out = eq.now(); };
        net.simSend(src, dst, bytes, 0, kNoTag, std::move(h));
    };
    send(0, 2, &t_a);
    send(0, 1, &t_b);
    send(1, 2, &t_c);
    send(1, 2, &t_d);
    eq.run();

    EXPECT_NEAR(t_b, bytes / 60.0, 1e-6);          // 15000 ns.
    EXPECT_NEAR(t_a, bytes / 30.0, 1e-6);          // 30000 ns.
    EXPECT_NEAR(t_c, bytes / 30.0, 1e-6);
    EXPECT_NEAR(t_d, bytes / 30.0, 1e-6);
}

TEST(FlowNetwork, DeparturesAccelerateRemainingFlows)
{
    // Same topology; C and D carry half the bytes. When B, C, D all
    // finish at t = 15000 ns, A (450 KB left) gets the full 90 GB/s
    // and must finish at 20000 ns — its original completion event
    // (predicted for 30000 ns) is superseded by the re-rate.
    Topology topo({{BlockType::Ring, 4, 90.0, 0.0}});
    EventQueue eq;
    FlowNetwork net(eq, topo);

    TimeNs t_a = -1, t_b = -1, t_c = -1, t_d = -1;
    auto send = [&](NpuId src, NpuId dst, Bytes bytes, TimeNs *out) {
        SendHandlers h;
        h.onDelivered = [out, &eq] { *out = eq.now(); };
        net.simSend(src, dst, bytes, 0, kNoTag, std::move(h));
    };
    send(0, 2, 900.0 * kKB, &t_a);
    send(0, 1, 900.0 * kKB, &t_b);
    send(1, 2, 450.0 * kKB, &t_c);
    send(1, 2, 450.0 * kKB, &t_d);
    eq.run();

    EXPECT_NEAR(t_b, 15000.0, 1e-6);
    EXPECT_NEAR(t_c, 15000.0, 1e-6);
    EXPECT_NEAR(t_d, 15000.0, 1e-6);
    EXPECT_NEAR(t_a, 20000.0, 1e-6);
}

TEST(FlowNetwork, LateArrivalSlowsAnInFlightFlow)
{
    // A starts alone at full bandwidth; B arrives halfway through and
    // the link is split fairly from that instant on.
    Topology topo({{BlockType::Ring, 2, 100.0, 0.0}});
    EventQueue eq;
    FlowNetwork net(eq, topo);
    Bytes bytes = 1_MB; // alone: 10000 ns.

    TimeNs t_a = -1, t_b = -1;
    SendHandlers ha;
    ha.onDelivered = [&] { t_a = eq.now(); };
    net.simSend(0, 1, bytes, 0, kNoTag, std::move(ha));

    eq.schedule(5000.0, [&] {
        SendHandlers hb;
        hb.onDelivered = [&] { t_b = eq.now(); };
        net.simSend(0, 1, bytes, 0, kNoTag, std::move(hb));
    });
    eq.run();

    // A: 500 KB at 100, then 500 KB at 50 -> 15000 ns. B: 500 KB at
    // 50 while A drains, then 500 KB at 100 -> 20000 ns.
    EXPECT_NEAR(t_a, 15000.0, 1e-6);
    EXPECT_NEAR(t_b, 20000.0, 1e-6);
}

TEST(FlowNetwork, InjectionPrecedesDeliveryByPathLatency)
{
    Topology topo({{BlockType::Switch, 4, 100.0, 400.0}});
    EventQueue eq;
    FlowNetwork net(eq, topo);

    TimeNs injected = -1.0, delivered = -1.0;
    SendHandlers h;
    h.onInjected = [&] { injected = eq.now(); };
    h.onDelivered = [&] { delivered = eq.now(); };
    net.simSend(1, 2, 1_MB, 0, kNoTag, std::move(h));
    eq.run();

    EXPECT_NEAR(injected, 1_MB / 100.0, kTimeEpsNs);
    EXPECT_NEAR(delivered - injected, 2 * 400.0, kTimeEpsNs);
}

TEST(FlowNetwork, SimRecvMatchingAndLoopback)
{
    Topology topo({{BlockType::Ring, 4, 100.0, 100.0}});
    EventQueue eq;
    FlowNetwork net(eq, topo);

    // Posted receive fires at delivery time.
    TimeNs recv_at = -1.0;
    net.simRecv(1, 0, 7, [&] { recv_at = eq.now(); });
    net.simSend(0, 1, 1000.0, 0, 7, SendHandlers{});

    // Loopback costs no network time.
    TimeNs loop_at = -1.0;
    SendHandlers h;
    h.onDelivered = [&] { loop_at = eq.now(); };
    net.simSend(2, 2, 1_MB, 0, kNoTag, std::move(h));

    eq.run();
    EXPECT_NEAR(recv_at, 1000.0 / 100.0 + 100.0, kTimeEpsNs);
    EXPECT_DOUBLE_EQ(loop_at, 0.0);
}

TEST(FlowNetwork, PerLinkUtilizationStats)
{
    Topology topo({{BlockType::Ring, 8, 100.0, 0.0}});
    EventQueue eq;
    FlowNetwork net(eq, topo);
    EXPECT_EQ(net.stats().linksPerDim[0], 16);

    // One flow over two hops: both links busy for bytes/bw each.
    oneSend(net, eq, 0, 2, 1_MB, 0);
    EXPECT_NEAR(net.stats().busyTimePerDim[0], 2 * 1_MB / 100.0, 1e-6);
    EXPECT_NEAR(net.stats().maxLinkBusyNs, 1_MB / 100.0, 1e-6);
    EXPECT_DOUBLE_EQ(net.stats().bytesPerDim[0], 1_MB);
    EXPECT_EQ(net.stats().messages, 1u);
}

TEST(FlowNetwork, FlowSlotsAreRecycled)
{
    Topology topo({{BlockType::Ring, 4, 100.0, 100.0}});
    EventQueue eq;
    FlowNetwork net(eq, topo);
    for (int i = 0; i < 5; ++i)
        oneSend(net, eq, 0, 1, 1000.0, 0);
    EXPECT_EQ(net.flowSlots(), 1u); // sequential flows reuse one slot.
    EXPECT_EQ(net.activeFlowCount(), 0u);
}

/** Chaotic congestion workload: staggered sends over a hierarchical
 *  topology; returns every delivery time in completion order. */
std::vector<TimeNs>
chaosDeliveries(uint64_t seed)
{
    Topology topo({{BlockType::Ring, 4, 150.0, 500.0},
                   {BlockType::Switch, 4, 50.0, 700.0}});
    EventQueue eq;
    FlowNetwork net(eq, topo);
    Rng rng(seed);
    std::vector<TimeNs> deliveries;

    for (int i = 0; i < 200; ++i) {
        NpuId src = static_cast<NpuId>(rng.uniformInt(0, 15));
        NpuId dst = static_cast<NpuId>(rng.uniformInt(0, 15));
        Bytes bytes = rng.uniform(1.0, 4.0) * 256.0 * kKB;
        TimeNs at = rng.uniform(0.0, 50000.0);
        eq.schedule(at, [&net, &eq, &deliveries, src, dst, bytes] {
            SendHandlers h;
            h.onDelivered = [&deliveries, &eq] {
                deliveries.push_back(eq.now());
            };
            net.simSend(src, dst, bytes, kAutoRoute, kNoTag,
                        std::move(h));
        });
    }
    eq.run();
    return deliveries;
}

TEST(FlowNetwork, RepeatedRunsAreByteIdentical)
{
    std::vector<TimeNs> a = chaosDeliveries(42);
    std::vector<TimeNs> b = chaosDeliveries(42);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), 200u);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "delivery " << i; // exact doubles.
}

/** Simulated time, executed events and solver counters of one run. */
struct BackendRun
{
    TimeNs simTimeNs;
    uint64_t events;
    FlowNetwork::SolverStats solver;
};

BackendRun
runTransferScenario(const bench::TransferScenario &sc,
                    NetworkBackendKind backend)
{
    EventQueue eq;
    std::unique_ptr<NetworkApi> net = makeNetwork(backend, eq, sc.topo);
    bench::runTransfers(*net, sc.transfers);
    BackendRun r{eq.now(), eq.executedEvents(), {}};
    if (backend == NetworkBackendKind::Flow)
        r.solver = static_cast<FlowNetwork &>(*net).solverStats();
    return r;
}

TEST(FlowVsPacket, Incast1024MatchesTheCommittedRuns)
{
    // The whole incast is ONE max-min solve: every flow gets bw/1023.
    BackendRun flow = runTransferScenario(bench::incast1024(),
                                          NetworkBackendKind::Flow);
    BackendRun packet = runTransferScenario(bench::incast1024(),
                                            NetworkBackendKind::Packet);
    EXPECT_NEAR(flow.simTimeNs, 10231000.0, 5e-4);
    EXPECT_EQ(flow.events, 2048u);
    EXPECT_NEAR(packet.simTimeNs, 10231040.96, 5e-4);
    EXPECT_EQ(packet.events, 501270u);
    EXPECT_EQ(flow.solver.solves, 1u);
    EXPECT_EQ(flow.solver.flowsTouched, 1023u);
    EXPECT_NEAR(flow.solver.avgComponentFrac(), 1.0, 5e-7);

    // The analytical backend serializes only each sender's TX port, so
    // it finishes in one message's time: 10,000 ns on the wire plus
    // 1,000 ns of latency. Flow and packet resolve the shared
    // down-link: their wire time is the 1023 senders' in a row.
    BackendRun analytical = runTransferScenario(
        bench::incast1024(), NetworkBackendKind::Analytical);
    EXPECT_NEAR(analytical.simTimeNs, 11000.0, 5e-4);
    EXPECT_EQ(analytical.events, 1023u);
    const TimeNs wire = analytical.simTimeNs - 1000.0;
    EXPECT_NEAR((flow.simTimeNs - 1000.0) / wire, 1023.0, 0.01);
    EXPECT_NEAR((packet.simTimeNs - 1000.0) / wire, 1023.0, 0.01);
}

TEST(FlowVsPacket, AllToAll64MatchesTheCommittedRuns)
{
    BackendRun flow = runTransferScenario(bench::allToAll64(),
                                          NetworkBackendKind::Flow);
    BackendRun packet = runTransferScenario(bench::allToAll64(),
                                            NetworkBackendKind::Packet);
    EXPECT_NEAR(flow.simTimeNs, 162280.0, 5e-4);
    EXPECT_EQ(flow.events, 8066u);
    EXPECT_NEAR(packet.simTimeNs, 162320.96, 5e-4);
    EXPECT_EQ(packet.events, 508032u);
    EXPECT_EQ(flow.solver.solves, 1u);
    EXPECT_EQ(flow.solver.flowsTouched, 4032u);
    EXPECT_NEAR(flow.solver.avgComponentFrac(), 1.0, 5e-7);
}

TEST(FlowVsPacket, HierAllreduce256MatchesTheCommittedRuns)
{
    // Staggered rounds keep most dirty batches local: the average
    // solve touches about half of the active flows.
    bench::HierAllreduce256 flow(NetworkBackendKind::Flow);
    flow.run();
    bench::HierAllreduce256 packet(NetworkBackendKind::Packet);
    packet.run();
    const FlowNetwork::SolverStats &solver =
        static_cast<FlowNetwork &>(*flow.net).solverStats();
    EXPECT_NEAR(flow.eq.now(), 87250.0, 5e-4);
    EXPECT_EQ(flow.eq.executedEvents(), 261315u);
    EXPECT_NEAR(packet.eq.now(), 79412.058, 5e-4);
    EXPECT_EQ(packet.eq.executedEvents(), 1180676u);
    EXPECT_EQ(solver.solves, 163u);
    EXPECT_EQ(solver.flowsTouched, 161792u);
    EXPECT_NEAR(solver.avgComponentFrac(), 0.515849, 5e-7);
}

} // namespace
} // namespace astra
