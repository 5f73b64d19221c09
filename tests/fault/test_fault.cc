/**
 * @file
 * Fault model and injector tests (docs/fault.md):
 *
 *  - Config parsing: path-qualified rejection of unknown keys, bad
 *    scales, and malformed schedule entries; JSON round-trip.
 *  - Timeline generation: deterministic for a fixed (seed, topology),
 *    time-sorted, range-checked against the topology.
 *  - Injector-driven link faults at the network level: degraded
 *    links slow exactly the flows that cross them (flow/packet) vs
 *    the analytical backend's documented port coarsening; downed
 *    links park traffic until link_up.
 *  - Plain-Simulator integration: zero-fault configs are bit-exact
 *    no-ops on every backend, stragglers stretch compute, NPU-fail
 *    schedules are rejected up front, and deadlocked workloads die
 *    with the dangling send/recv watchdog diagnostic.
 */
#include <gtest/gtest.h>

#include "astra/simulator.h"
#include "collective/engine.h"
#include "common/logging.h"
#include "event/event_queue.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "network/analytical.h"
#include "network/detailed/packet_network.h"
#include "network/flow/flow_network.h"
#include "sweep/spec.h"
#include "topology/notation.h"

namespace astra {
namespace fault {
namespace {

TEST(FaultConfigJson, RejectsBadDocuments)
{
    // Unknown top-level key.
    EXPECT_THROW(faultConfigFromJson(
                     json::parse(R"({"schedul": []})"), "fault"),
                 FatalError);
    // Degrade scale must be > 0 (link_down is the full outage).
    EXPECT_THROW(
        faultConfigFromJson(json::parse(R"({"schedule": [
            {"at_ns": 0, "kind": "link_degrade", "src": 0,
             "scale": 0}]})"),
                            "fault"),
        FatalError);
    // link_degrade_scale = 1 would generate no-op "faults".
    EXPECT_THROW(faultConfigFromJson(
                     json::parse(R"({"link_degrade_scale": 1.0})"),
                     "fault"),
                 FatalError);
    // MTBF generation without a horizon never terminates.
    EXPECT_THROW(faultConfigFromJson(
                     json::parse(
                         R"({"npu_mtbf_ns": 1e6, "npu_mttr_ns": 1e5})"),
                     "fault"),
                 FatalError);
    // Unknown fault kind.
    EXPECT_THROW(
        faultConfigFromJson(json::parse(R"({"schedule": [
            {"at_ns": 0, "kind": "link_sideways", "src": 0}]})"),
                            "fault"),
        FatalError);
    // npu_fail without an 'npu'.
    EXPECT_THROW(
        faultConfigFromJson(json::parse(R"({"schedule": [
            {"at_ns": 0, "kind": "npu_fail"}]})"),
                            "fault"),
        FatalError);
}

TEST(FaultConfigJson, ErrorsArePathQualified)
{
    try {
        faultConfigFromJson(json::parse(R"({"schedule": [
            {"at_ns": 0, "kind": "link_down", "src": 0},
            {"at_ns": -5, "kind": "link_down", "src": 0}]})"),
                            "fault");
        FAIL() << "negative at_ns accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("fault.schedule.1"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FaultConfigJson, Parses)
{
    FaultConfig cfg = faultConfigFromJson(json::parse(R"({
        "seed": 7, "horizon_ns": 1e6,
        "link_mtbf_ns": 2e5, "link_mttr_ns": 1e4,
        "link_degrade_scale": 0.25,
        "schedule": [
          {"at_ns": 100, "kind": "link_degrade", "src": 1, "dst": 2,
           "dim": 0, "scale": 0.5},
          {"at_ns": 200, "kind": "npu_fail", "npu": 3},
          {"at_ns": 300, "kind": "straggler", "npu": 0,
           "compute_scale": 2.0}
        ]})"));
    EXPECT_EQ(cfg.seed, 7u);
    EXPECT_EQ(cfg.linkDegradeScale, 0.25);
    ASSERT_EQ(cfg.schedule.size(), 3u);
    EXPECT_EQ(cfg.schedule[0].kind, FaultKind::LinkDegrade);
    EXPECT_EQ(cfg.schedule[1].kind, FaultKind::NpuFail);
    EXPECT_EQ(cfg.schedule[2].kind, FaultKind::Straggler);
    for (size_t i = 0; i < cfg.schedule.size(); ++i)
        EXPECT_EQ(cfg.schedule[i].at, 100.0 * double(i + 1));
    EXPECT_FALSE(cfg.empty());
    EXPECT_TRUE(FaultConfig{}.empty());
}

TEST(Timeline, DeterministicSortedAndRangeChecked)
{
    Topology topo = parseTopology("Ring(4,100)");
    FaultConfig cfg;
    cfg.seed = 42;
    cfg.horizonNs = 1e6;
    cfg.npuMtbfNs = 1e5;
    cfg.npuMttrNs = 2e4;
    cfg.linkMtbfNs = 3e5;
    cfg.linkMttrNs = 1e4;

    std::vector<FaultEvent> a = buildTimeline(cfg, topo);
    std::vector<FaultEvent> b = buildTimeline(cfg, topo);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at, b[i].at);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].npu, b[i].npu);
        EXPECT_EQ(a[i].src, b[i].src);
        if (i > 0) {
            EXPECT_GE(a[i].at, a[i - 1].at);
        }
    }

    // A different seed must reshuffle the generated timeline.
    cfg.seed = 43;
    std::vector<FaultEvent> c = buildTimeline(cfg, topo);
    bool same = a.size() == c.size();
    for (size_t i = 0; same && i < a.size(); ++i)
        same = a[i].at == c[i].at;
    EXPECT_FALSE(same);

    // Out-of-range components are rejected at materialization.
    FaultConfig bad;
    FaultEvent ev;
    ev.kind = FaultKind::NpuFail;
    ev.npu = 99;
    bad.schedule.push_back(ev);
    EXPECT_THROW(buildTimeline(bad, topo), FatalError);
}

/** Run `body` after injecting `cfg` into (eq, net) and return the
 *  time of the last delivery; `fired`, if given, receives the number
 *  of fault events the injector fired. */
template <typename Net>
TimeNs
injectAndRun(const Topology &topo, const FaultConfig &cfg,
             Net &net, EventQueue &eq,
             const std::vector<std::pair<NpuId, NpuId>> &sends,
             Bytes bytes, uint64_t *fired = nullptr)
{
    FaultHooks hooks;
    hooks.net = &net;
    FaultInjector injector(eq, topo, cfg, std::move(hooks));
    injector.start();
    TimeNs last = 0.0;
    // Issue the sends at t=1 so t=0 fault events are already applied
    // (the analytical backend prices a message at submission time).
    eq.schedule(1.0, [&] {
        for (auto [src, dst] : sends) {
            SendHandlers h;
            h.onDelivered = [&last, &eq] {
                last = std::max(last, eq.now());
            };
            net.simSend(src, dst, bytes, kAutoRoute, kNoTag,
                        std::move(h));
        }
    });
    eq.run();
    if (fired != nullptr)
        *fired = injector.firedCount();
    return last;
}

FaultConfig
degradeLink(NpuId src, NpuId dst, double scale)
{
    FaultConfig cfg;
    FaultEvent ev;
    ev.kind = FaultKind::LinkDegrade;
    ev.src = src;
    ev.dst = dst;
    ev.dim = 0;
    ev.scale = scale;
    cfg.schedule.push_back(ev);
    return cfg;
}

TEST(DegradedLink, FlowAndPacketAgreeOnADegradedIncast)
{
    // 7-to-1 incast on a switch; sender 1's uplink is degraded to 10%
    // so it — not the shared receiver port — bounds the makespan.
    Topology topo = parseTopology("Switch(8,100)");
    std::vector<std::pair<NpuId, NpuId>> sends;
    for (NpuId s = 1; s < 8; ++s)
        sends.push_back({s, 0});
    Bytes bytes = 1 << 20;
    FaultConfig degraded = degradeLink(1, 0, 0.1);

    auto flowTime = [&](const FaultConfig &cfg) {
        EventQueue eq;
        FlowNetwork net(eq, topo);
        return injectAndRun(topo, cfg, net, eq, sends, bytes);
    };
    auto packetTime = [&](const FaultConfig &cfg) {
        EventQueue eq;
        PacketNetwork net(eq, topo, 4096.0);
        return injectAndRun(topo, cfg, net, eq, sends, bytes);
    };

    TimeNs flow_clean = flowTime(FaultConfig{});
    TimeNs flow_fault = flowTime(degraded);
    TimeNs pkt_clean = packetTime(FaultConfig{});
    TimeNs pkt_fault = packetTime(degraded);

    // The degraded sender stretches the incast on both backends...
    EXPECT_GT(flow_fault, flow_clean * 1.2);
    EXPECT_GT(pkt_fault, pkt_clean * 1.2);
    // ...and the two congestion-resolving models agree within the
    // documented store-and-forward/header tolerance (docs/fault.md).
    EXPECT_NEAR(flow_fault / pkt_fault, 1.0, 0.15);
}

TEST(DegradedLink, FourMegabyteIncastMatchesTheCommittedRuns)
{
    // The same degraded 7-to-1 incast at 4 MB per sender.
    Topology topo = parseTopology("Switch(8,100)");
    std::vector<std::pair<NpuId, NpuId>> sends;
    for (NpuId s = 1; s < 8; ++s)
        sends.push_back({s, 0});
    FaultConfig degraded = degradeLink(1, 0, 0.1);

    EventQueue flow_eq;
    FlowNetwork flow(flow_eq, topo);
    uint64_t flow_fired = 0;
    TimeNs flow_t = injectAndRun(topo, degraded, flow, flow_eq, sends,
                                 4e6, &flow_fired);
    EventQueue pkt_eq;
    PacketNetwork pkt(pkt_eq, topo, 4096.0);
    uint64_t pkt_fired = 0;
    TimeNs pkt_t = injectAndRun(topo, degraded, pkt, pkt_eq, sends, 4e6,
                                &pkt_fired);

    EXPECT_NEAR(flow_t, 2801001.0, 5e-4);
    EXPECT_EQ(flow_eq.executedEvents(), 19u);
    EXPECT_EQ(flow_fired, 1u);
    EXPECT_NEAR(pkt_t, 2801041.96, 5e-4);
    EXPECT_EQ(pkt_eq.executedEvents(), 13680u);
    EXPECT_EQ(pkt_fired, 1u);
    EXPECT_GE(flow_t / pkt_t, 0.85);
    EXPECT_LE(flow_t / pkt_t, 1.15);
}

TEST(DegradedLink, AnalyticalCoarsensToTheWholePort)
{
    // Documented fidelity caveat: the analytical backend cannot see
    // individual links — a (src, dst) selector degrades src's whole
    // transmit port in the charged dimension. On a ring, 0->1 and
    // 0->3 are distinct physical links; degrading (0, 1) must leave
    // 0->3 untouched under the flow backend but slows it under the
    // analytical one.
    Topology topo = parseTopology("Ring(4,100)");
    Bytes bytes = 1 << 20;
    FaultConfig degraded = degradeLink(0, 1, 0.25);

    auto flowTime = [&](const FaultConfig &cfg,
                        std::pair<NpuId, NpuId> send) {
        EventQueue eq;
        FlowNetwork net(eq, topo);
        return injectAndRun(topo, cfg, net, eq, {send}, bytes);
    };
    auto anaTime = [&](const FaultConfig &cfg,
                       std::pair<NpuId, NpuId> send) {
        EventQueue eq;
        AnalyticalNetwork net(eq, topo);
        return injectAndRun(topo, cfg, net, eq, {send}, bytes);
    };

    // Flow: the degraded link slows 0->1 by exactly the scale; the
    // opposite-direction 0->3 link is untouched.
    EXPECT_GT(flowTime(degraded, {0, 1}),
              flowTime(FaultConfig{}, {0, 1}) * 2.0);
    EXPECT_EQ(flowTime(degraded, {0, 3}),
              flowTime(FaultConfig{}, {0, 3}));

    // Analytical: both directions share the dim-0 port, so the
    // bystander 0->3 path slows too (coarsening, not a bug).
    EXPECT_GT(anaTime(degraded, {0, 3}),
              anaTime(FaultConfig{}, {0, 3}) * 2.0);
}

TEST(LinkOutage, TrafficParksUntilLinkUp)
{
    Topology topo = parseTopology("Ring(4,100)");
    FaultConfig cfg;
    FaultEvent down;
    down.kind = FaultKind::LinkDown;
    down.src = 0;
    down.dst = 1;
    down.dim = 0;
    cfg.schedule.push_back(down);
    FaultEvent up = down;
    up.kind = FaultKind::LinkUp;
    up.at = 50000.0;
    cfg.schedule.push_back(up);

    for (int backend = 0; backend < 2; ++backend) {
        EventQueue eq;
        std::unique_ptr<NetworkApi> net;
        if (backend == 0)
            net = std::make_unique<FlowNetwork>(eq, topo);
        else
            net = std::make_unique<PacketNetwork>(eq, topo, 4096.0);
        TimeNs t = injectAndRun(topo, cfg, *net, eq, {{0, 1}},
                                Bytes(1 << 16));
        // Delivery cannot precede the link_up event.
        EXPECT_GE(t, 50000.0) << "backend " << backend;
        EXPECT_LT(t, 80000.0) << "backend " << backend;
    }
}

// ---------------------------------------------------------------------
// Plain-Simulator integration.

/** Per-NPU chain of `chain` compute nodes (straggler tests scale all
 *  but the first, which starts before any t>0 fault event fires). */
Workload
computeWorkload(const Topology &topo, int chain = 1)
{
    Workload wl;
    wl.name = "compute";
    for (NpuId n = 0; n < topo.npus(); ++n) {
        EtGraph g;
        g.npu = n;
        for (int i = 0; i < chain; ++i) {
            EtNode c = EtNode::compute(1e9, 1e6);
            if (i > 0)
                g.add(c, {uint32_t(i - 1)});
            else
                g.add(c);
        }
        wl.graphs.push_back(std::move(g));
    }
    return wl;
}

class ZeroFaultIdentity
    : public testing::TestWithParam<NetworkBackendKind>
{
};

TEST_P(ZeroFaultIdentity, EmptyScenarioIsBitExact)
{
    Topology topo = parseTopology("Ring(2,250)_Switch(4,50)");
    json::Value w = json::parse(
        R"({"kind": "collective", "collective": "all-reduce",
            "bytes": 1048576})");
    Workload wl = sweep::workloadFromSpec(topo, w);

    SimulatorConfig plain_cfg;
    plain_cfg.backend = GetParam();
    Simulator plain(topo, plain_cfg);
    Report expect = plain.run(wl);

    SimulatorConfig fault_cfg = plain_cfg;
    fault_cfg.fault = FaultConfig{}; // present but empty.
    Simulator faulty(topo, fault_cfg);
    Report got = faulty.run(wl);

    EXPECT_EQ(got.totalTime, expect.totalTime);
    EXPECT_EQ(got.events, expect.events);
    EXPECT_EQ(got.messages, expect.messages);
    EXPECT_EQ(got.numFaults, 0u);
    ASSERT_EQ(got.busyTimePerDim.size(), expect.busyTimePerDim.size());
    for (size_t d = 0; d < expect.busyTimePerDim.size(); ++d)
        EXPECT_EQ(got.busyTimePerDim[d], expect.busyTimePerDim[d]);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ZeroFaultIdentity,
    testing::Values(NetworkBackendKind::Analytical,
                    NetworkBackendKind::AnalyticalPure,
                    NetworkBackendKind::Flow,
                    NetworkBackendKind::Packet),
    [](const testing::TestParamInfo<NetworkBackendKind> &info) {
        switch (info.param) {
          case NetworkBackendKind::Analytical: return "analytical";
          case NetworkBackendKind::AnalyticalPure:
            return "analytical_pure";
          case NetworkBackendKind::Flow: return "flow";
          case NetworkBackendKind::Packet: return "packet";
        }
        return "unknown";
    });

TEST(SimulatorFaults, StragglerStretchesCompute)
{
    Topology topo = parseTopology("Ring(4,100)");

    SimulatorConfig clean;
    clean.backend = NetworkBackendKind::Flow;
    Simulator base(topo, clean);
    Report fast = base.run(computeWorkload(topo, 4));

    SimulatorConfig slow_cfg = clean;
    FaultConfig f;
    FaultEvent ev;
    ev.kind = FaultKind::Straggler;
    ev.npu = 0;
    ev.computeScale = 4.0;
    ev.at = 1.0; // After the chain head starts (priced at start).
    f.schedule.push_back(ev);
    slow_cfg.fault = f;
    Simulator slow(topo, slow_cfg);
    Report got = slow.run(computeWorkload(topo, 4));

    // Head node unscaled, the remaining three at 4x: > 2x end-to-end.
    EXPECT_GT(got.totalTime, fast.totalTime * 2.0);
    EXPECT_EQ(got.numFaults, 1u);
}

TEST(SimulatorFaults, DegradedLinkSlowsTheCollective)
{
    Topology topo = parseTopology("Ring(4,100)");
    json::Value w = json::parse(
        R"({"kind": "collective", "collective": "all-reduce",
            "bytes": 4194304})");

    SimulatorConfig clean;
    clean.backend = NetworkBackendKind::Flow;
    Simulator base(topo, clean);
    Report fast = base.run(sweep::workloadFromSpec(topo, w));

    SimulatorConfig cfg = clean;
    cfg.fault = degradeLink(1, kAllFaultPeers, 0.5);
    Simulator degraded(topo, cfg);
    Report got = degraded.run(sweep::workloadFromSpec(topo, w));

    // The ring all-reduce is bandwidth-bound through every NPU, so
    // halving one NPU's egress roughly halves the collective rate.
    EXPECT_GT(got.totalTime, fast.totalTime * 1.5);
    EXPECT_EQ(got.numFaults, 1u);
}

TEST(SimulatorFaults, NpuFailSchedulesAreRejectedUpFront)
{
    Topology topo = parseTopology("Ring(4,100)");
    SimulatorConfig cfg;
    FaultConfig f;
    FaultEvent ev;
    ev.kind = FaultKind::NpuFail;
    ev.npu = 1;
    ev.at = 1000.0;
    f.schedule.push_back(ev);
    cfg.fault = f;
    Simulator sim(topo, cfg);
    try {
        sim.run(computeWorkload(topo));
        FAIL() << "npu_fail accepted by the single-workload simulator";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("cluster"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SimulatorFaults, DeadlockDiagnosticListsDanglingRecvs)
{
    // NPU 0 posts a recv that no one ever satisfies; the drained-queue
    // watchdog must name the dangling (dst, src, tag) instead of
    // reporting a bare hang.
    Topology topo = parseTopology("Ring(2,100)");
    Workload wl;
    wl.name = "orphan-recv";
    for (NpuId n = 0; n < 2; ++n) {
        EtGraph g;
        g.npu = n;
        if (n == 0)
            g.add(EtNode::recv(1, 42));
        else
            g.add(EtNode::compute(1e6, 1e3));
        wl.graphs.push_back(std::move(g));
    }

    Simulator sim(topo, SimulatorConfig{});
    try {
        sim.run(wl);
        FAIL() << "orphan recv did not deadlock";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("deadlocked"), std::string::npos) << msg;
        EXPECT_NE(msg.find("dangling recv"), std::string::npos) << msg;
        EXPECT_NE(msg.find("tag=42"), std::string::npos) << msg;
    }
}

TEST(GhostQuiesce, CancelledCollectiveStopsPumping)
{
    // An abandoned incarnation's collective engine must not keep
    // feeding chunk pipelines into the fabric after cancelAll():
    // messages already in flight are dropped on delivery, the
    // instance never completes, and the queue drains shortly after
    // the cancel instead of running the full collective.
    Topology topo = parseTopology("Ring(4,100)");
    EventQueue eq;
    FlowNetwork net(eq, topo);
    CollectiveEngine coll(net);

    CollectiveRequest req =
        CollectiveRequest::overDims(CollectiveType::AllReduce, 4e6);
    int completions = 0;
    for (NpuId npu = 0; npu < 4; ++npu)
        coll.join(1, npu, req, [&completions] { ++completions; });

    // Uncancelled baseline duration for the same collective.
    EventQueue ref_eq;
    FlowNetwork ref_net(ref_eq, topo);
    CollectiveEngine ref_coll(ref_net);
    TimeNs full = runCollective(ref_coll, req).finish;
    ASSERT_GT(full, 1000.0);

    eq.schedule(full / 10.0, [&coll] { coll.cancelAll(); });
    eq.run();

    EXPECT_EQ(completions, 0);
    EXPECT_EQ(coll.completedInstances(), 0u);
    // Only the in-flight step drains past the cancel point, not the
    // remaining (k-1) algorithm steps.
    EXPECT_LT(eq.now(), full / 2.0);
}

} // namespace
} // namespace fault
} // namespace astra
