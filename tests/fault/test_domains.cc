/**
 * @file
 * Failure-domain tests (docs/fault.md "Failure domains & placement
 * policies"):
 *
 *  - Domain resolution: hierarchy slices (single block and expand-all
 *    with auto-naming), explicit member lists, and the validation
 *    errors (range, duplicates, unknown names).
 *  - Deterministic expansion: a domain_fail becomes its member NPU
 *    fail-stops (ascending) plus inbound boundary-link downs, a
 *    domain_recover heals the boundary links *before* the members,
 *    and repeated builds are byte-identical.
 *  - Incident ids: a whole-domain outage is one incident shared by
 *    every constituent event.
 *  - Correlated generation: per-domain seeded streams reproduce under
 *    a fixed (seed, topology) and appending a domain never shifts an
 *    earlier domain's stream.
 *  - Cluster integration on all three network backends: a scheduled
 *    rack outage rolls the resident job back and restarts it, with
 *    byte-identical reports across repeated runs.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/logging.h"
#include "fault/fault.h"
#include "topology/notation.h"

namespace astra {
namespace fault {
namespace {

/** Compact, comparison-friendly rendering of a timeline. */
std::string
describe(const std::vector<FaultEvent> &timeline)
{
    std::string out;
    char buf[160];
    for (const FaultEvent &ev : timeline) {
        std::snprintf(buf, sizeof(buf),
                      "%.0f %s src=%d dst=%d dim=%d npu=%d domain=%d "
                      "incident=%d\n",
                      ev.at, faultKindName(ev.kind), ev.src, ev.dst,
                      ev.dim, ev.npu, ev.domain, ev.incident);
        out += buf;
    }
    return out;
}

FaultConfig
rackScheduleConfig()
{
    FaultConfig cfg = faultConfigFromJson(json::parse(R"json({
      "domains": [{"name": "rack", "level": 1, "index": 0}],
      "schedule": [
        {"at_ns": 100, "kind": "domain_fail", "domain": "rack"},
        {"at_ns": 200, "kind": "domain_recover", "domain": "rack"}
      ]
    })json"));
    return cfg;
}

TEST(FailureDomains, ResolvesHierarchySlicesAndExplicitLists)
{
    Topology topo = parseTopology("Ring(2,250)_Switch(4,50)");

    // Single level-1 block: 2 NPUs.
    FaultConfig cfg;
    FailureDomain spec;
    spec.name = "rack";
    spec.level = 1;
    spec.index = 2;
    cfg.domains.push_back(spec);
    std::vector<FailureDomain> out = resolveDomains(cfg, topo);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].name, "rack");
    EXPECT_EQ(out[0].npus, (std::vector<NpuId>{4, 5}));

    // Expand-all with auto-naming.
    cfg.domains[0].index = -1;
    out = resolveDomains(cfg, topo);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0].name, "rack0");
    EXPECT_EQ(out[3].name, "rack3");
    EXPECT_EQ(out[3].npus, (std::vector<NpuId>{6, 7}));

    // Explicit member list comes back sorted.
    FaultConfig exp;
    FailureDomain e;
    e.name = "odd";
    e.npus = {5, 1, 3};
    exp.domains.push_back(e);
    out = resolveDomains(exp, topo);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].npus, (std::vector<NpuId>{1, 3, 5}));
}

TEST(FailureDomains, ResolutionRejectsInvalidSpecs)
{
    Topology topo = parseTopology("Ring(2,250)_Switch(4,50)");
    auto resolve = [&](const char *json_text) {
        return resolveDomains(
            faultConfigFromJson(json::parse(json_text)), topo);
    };
    // Member out of range.
    EXPECT_THROW(resolve(R"({"domains":
        [{"name": "x", "npus": [0, 8]}]})"),
                 FatalError);
    // Duplicate member.
    EXPECT_THROW(resolve(R"({"domains":
        [{"name": "x", "npus": [3, 3]}]})"),
                 FatalError);
    // Level beyond the topology's dimensions.
    EXPECT_THROW(resolve(R"({"domains":
        [{"name": "x", "level": 3}]})"),
                 FatalError);
    // Index beyond the block count.
    EXPECT_THROW(resolve(R"({"domains":
        [{"name": "x", "level": 1, "index": 4}]})"),
                 FatalError);
    // Duplicate names (including auto-named collisions).
    EXPECT_THROW(resolve(R"({"domains":
        [{"name": "x", "level": 1, "index": 0},
         {"name": "x", "level": 1, "index": 1}]})"),
                 FatalError);
    // Schedule referencing an undeclared domain.
    EXPECT_THROW(
        buildTimeline(faultConfigFromJson(json::parse(R"({"schedule":
            [{"at_ns": 0, "kind": "domain_fail",
              "domain": "ghost"}]})")),
                      topo),
        FatalError);
    // Both spec forms at once is rejected at parse time.
    EXPECT_THROW(faultConfigFromJson(json::parse(R"({"domains":
        [{"name": "x", "level": 1, "npus": [0]}]})")),
                 FatalError);
}

TEST(FailureDomains, ExpansionEmitsExactConstituentSet)
{
    // Rack = level-1 block {0, 1} of Ring(2)_Switch(4). Inbound
    // boundary links are the dim-1 switch links from the other racks.
    Topology topo = parseTopology("Ring(2,250)_Switch(4,50)");
    std::vector<FaultEvent> tl =
        buildTimeline(rackScheduleConfig(), topo);

    EXPECT_EQ(describe(tl),
              // One incident: the domain root and every constituent.
              "100 domain_fail src=-1 dst=-1 dim=-1 npu=-1 domain=0 "
              "incident=0\n"
              // Members fail-stop first, ascending.
              "100 npu_fail src=-1 dst=-1 dim=-1 npu=0 domain=0 "
              "incident=0\n"
              "100 npu_fail src=-1 dst=-1 dim=-1 npu=1 domain=0 "
              "incident=0\n"
              // Then the inbound boundary links, per (member, dim) in
              // group order.
              "100 link_down src=2 dst=0 dim=1 npu=-1 domain=0 "
              "incident=0\n"
              "100 link_down src=4 dst=0 dim=1 npu=-1 domain=0 "
              "incident=0\n"
              "100 link_down src=6 dst=0 dim=1 npu=-1 domain=0 "
              "incident=0\n"
              "100 link_down src=3 dst=1 dim=1 npu=-1 domain=0 "
              "incident=0\n"
              "100 link_down src=5 dst=1 dim=1 npu=-1 domain=0 "
              "incident=0\n"
              "100 link_down src=7 dst=1 dim=1 npu=-1 domain=0 "
              "incident=0\n"
              // Recovery heals the fabric before the members so a
              // zero-delay restart never sees a half-healed boundary.
              "200 domain_recover src=-1 dst=-1 dim=-1 npu=-1 "
              "domain=0 incident=-1\n"
              "200 link_up src=2 dst=0 dim=1 npu=-1 domain=0 "
              "incident=-1\n"
              "200 link_up src=4 dst=0 dim=1 npu=-1 domain=0 "
              "incident=-1\n"
              "200 link_up src=6 dst=0 dim=1 npu=-1 domain=0 "
              "incident=-1\n"
              "200 link_up src=3 dst=1 dim=1 npu=-1 domain=0 "
              "incident=-1\n"
              "200 link_up src=5 dst=1 dim=1 npu=-1 domain=0 "
              "incident=-1\n"
              "200 link_up src=7 dst=1 dim=1 npu=-1 domain=0 "
              "incident=-1\n"
              "200 npu_recover src=-1 dst=-1 dim=-1 npu=0 domain=0 "
              "incident=-1\n"
              "200 npu_recover src=-1 dst=-1 dim=-1 npu=1 domain=0 "
              "incident=-1\n");

    // Byte-identical across repeated builds.
    EXPECT_EQ(describe(buildTimeline(rackScheduleConfig(), topo)),
              describe(tl));
}

TEST(FailureDomains, DistinctRootsGetDistinctIncidents)
{
    Topology topo = parseTopology("Ring(2,250)_Switch(4,50)");
    FaultConfig cfg = faultConfigFromJson(json::parse(R"json({
      "domains": [{"name": "rack", "level": 1, "index": 0}],
      "schedule": [
        {"at_ns": 50, "kind": "npu_fail", "npu": 6},
        {"at_ns": 100, "kind": "domain_fail", "domain": "rack"},
        {"at_ns": 150, "kind": "npu_fail", "npu": 7}
      ]
    })json"));
    std::vector<FaultEvent> tl = buildTimeline(cfg, topo);
    // Incidents assigned in time order; the domain's constituents
    // all inherit incident 1.
    ASSERT_GE(tl.size(), 4u);
    EXPECT_EQ(tl[0].incident, 0); // npu_fail 6
    EXPECT_EQ(tl[1].incident, 1); // domain root
    for (size_t i = 2; i < tl.size() - 1; ++i)
        EXPECT_EQ(tl[i].incident, 1) << describe(tl);
    EXPECT_EQ(tl.back().incident, 2); // npu_fail 7
}

TEST(FailureDomains, GeneratedStreamsAreStablePerDomain)
{
    Topology topo = parseTopology("Ring(2,250)_Switch(4,50)");
    auto generate = [&](const char *json_text) {
        return buildTimeline(
            faultConfigFromJson(json::parse(json_text)), topo);
    };
    const char *one = R"({"seed": 9, "horizon_ns": 1e6,
        "domains": [{"name": "a", "level": 1, "index": 0}],
        "domain_mtbf_ns": 1e5, "domain_mttr_ns": 2e4})";
    const char *two = R"({"seed": 9, "horizon_ns": 1e6,
        "domains": [{"name": "a", "level": 1, "index": 0},
                    {"name": "b", "level": 1, "index": 1}],
        "domain_mtbf_ns": 1e5, "domain_mttr_ns": 2e4})";

    std::vector<FaultEvent> base = generate(one);
    EXPECT_FALSE(base.empty());
    EXPECT_EQ(describe(generate(one)), describe(base));

    // Appending domain 'b' adds its stream without shifting 'a''s:
    // filtering the two-domain timeline to domain 0 recovers the
    // one-domain timeline (incident ids differ — they are global).
    std::vector<FaultEvent> both = generate(two);
    std::vector<FaultEvent> only_a;
    for (FaultEvent ev : both) {
        if (ev.domain == 0) {
            ev.incident = -1;
            only_a.push_back(ev);
        }
    }
    std::vector<FaultEvent> base_no_incident = base;
    for (FaultEvent &ev : base_no_incident)
        ev.incident = -1;
    EXPECT_EQ(describe(only_a), describe(base_no_incident));
}

TEST(FailureDomains, PerDomainMtbfOverridesTheDefault)
{
    Topology topo = parseTopology("Ring(2,250)_Switch(4,50)");
    // 'flaky' fails an order of magnitude faster than 'stable'.
    FaultConfig cfg = faultConfigFromJson(json::parse(R"json({
      "seed": 3, "horizon_ns": 2e6,
      "domains": [
        {"name": "flaky", "level": 1, "index": 0, "mtbf_ns": 2e4,
         "mttr_ns": 5e3},
        {"name": "stable", "level": 1, "index": 1}
      ],
      "domain_mtbf_ns": 1e6, "domain_mttr_ns": 1e5
    })json"));
    size_t flaky = 0, stable = 0;
    for (const FaultEvent &ev : buildTimeline(cfg, topo)) {
        if (ev.kind != FaultKind::DomainFail)
            continue;
        (ev.domain == 0 ? flaky : stable)++;
    }
    EXPECT_GT(flaky, 4 * (stable + 1));
}

TEST(FailureDomains, YoungDalyClosedForm)
{
    EXPECT_DOUBLE_EQ(youngDalyInterval(2e3, 1e9), 2e6);
    EXPECT_DOUBLE_EQ(youngDalyInterval(500.0, 1e6),
                     std::sqrt(2.0 * 500.0 * 1e6));
}

TEST(FailureDomains, ConfigJsonParses)
{
    json::Value doc = json::parse(R"json({
      "seed": 11, "horizon_ns": 1e6,
      "domains": [
        {"name": "rack", "level": 1},
        {"name": "pair", "npus": [2, 6], "mtbf_ns": 5e4,
         "mttr_ns": 1e4}
      ],
      "domain_mtbf_ns": 2e5, "domain_mttr_ns": 3e4,
      "schedule": [
        {"at_ns": 10, "kind": "domain_fail", "domain": "rack1"}
      ]
    })json");
    FaultConfig cfg = faultConfigFromJson(doc);
    EXPECT_TRUE(cfg.generatesDomainFaults());
}

/** Cluster integration: a scheduled rack outage on each backend. */
class DomainOutage
    : public ::testing::TestWithParam<NetworkBackendKind>
{
};

TEST_P(DomainOutage, RollsBackRestartsAndReproduces)
{
    auto run = [&] {
        cluster::ClusterConfig cfg;
        cfg.backend = GetParam();
        cfg.fault = faultConfigFromJson(json::parse(R"json({
          "domains": [{"name": "rack", "level": 1, "index": 0}],
          "schedule": [
            {"at_ns": 31000, "kind": "domain_fail", "domain": "rack"},
            {"at_ns": 40000, "kind": "domain_recover",
             "domain": "rack"}
          ]
        })json"));
        cfg.defaultCheckpoint.intervalNs = 10000.0;
        cfg.defaultCheckpoint.restartDelayNs = 500.0;
        cluster::ClusterSimulator cluster(
            parseTopology("Ring(2,250)_Switch(4,50)"), cfg);
        cluster::JobSpec spec;
        spec.name = "train";
        spec.size = 2;
        spec.workloadDoc = json::parse(
            R"({"kind": "collective", "collective": "all-reduce",
                "bytes": 33554432})");
        cluster.addJob(std::move(spec));
        return cluster.run();
    };

    cluster::ClusterReport report = run();
    ASSERT_EQ(report.jobs.size(), 1u);
    const cluster::JobResult &job = report.jobs[0];
    EXPECT_FALSE(job.failed) << job.error;
    EXPECT_EQ(job.restarts, 1);
    EXPECT_GT(job.report.lostWorkNs, 0.0);
    // Whole-rack outage = ONE incident disrupting one job.
    EXPECT_DOUBLE_EQ(report.aggregate.blastRadius, 1.0);
    EXPECT_GT(report.aggregate.recoveryP95Ns, 0.0);
    EXPECT_GT(job.report.availability, 0.0);
    EXPECT_LT(job.report.availability, 1.0);

    // Byte-identical across repeated runs.
    cluster::ClusterReport again = run();
    EXPECT_EQ(again.toJson().dump(), report.toJson().dump());
    EXPECT_EQ(again.jobsCsv(), report.jobsCsv());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, DomainOutage,
    ::testing::Values(NetworkBackendKind::Analytical,
                      NetworkBackendKind::Flow,
                      NetworkBackendKind::Packet),
    [](const auto &info) {
        switch (info.param) {
        case NetworkBackendKind::Flow:
            return "Flow";
        case NetworkBackendKind::Packet:
            return "Packet";
        default:
            return "Analytical";
        }
    });

} // namespace
} // namespace fault
} // namespace astra
