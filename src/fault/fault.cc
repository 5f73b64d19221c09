#include "fault/fault.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"

namespace astra {
namespace fault {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::LinkDegrade: return "link_degrade";
      case FaultKind::LinkDown: return "link_down";
      case FaultKind::LinkUp: return "link_up";
      case FaultKind::NpuFail: return "npu_fail";
      case FaultKind::NpuRecover: return "npu_recover";
      case FaultKind::Straggler: return "straggler";
      case FaultKind::DomainFail: return "domain_fail";
      case FaultKind::DomainRecover: return "domain_recover";
    }
    panic("unknown fault kind");
}

RestartMode
parseRestartMode(const std::string &name, const std::string &path)
{
    if (name == "same")
        return RestartMode::Same;
    if (name == "requeue")
        return RestartMode::Requeue;
    if (name == "migrate")
        return RestartMode::Migrate;
    if (name == "spare")
        return RestartMode::Spare;
    fatal("%s: expected \"same\", \"requeue\", \"migrate\", or "
          "\"spare\", got \"%s\"",
          path.c_str(), name.c_str());
}

namespace {

FaultKind
parseKind(const std::string &name, const std::string &path)
{
    if (name == "link_degrade")
        return FaultKind::LinkDegrade;
    if (name == "link_down")
        return FaultKind::LinkDown;
    if (name == "link_up")
        return FaultKind::LinkUp;
    if (name == "npu_fail")
        return FaultKind::NpuFail;
    if (name == "npu_recover")
        return FaultKind::NpuRecover;
    if (name == "straggler")
        return FaultKind::Straggler;
    if (name == "domain_fail")
        return FaultKind::DomainFail;
    if (name == "domain_recover")
        return FaultKind::DomainRecover;
    fatal("%s: unknown fault kind '%s' (expected link_degrade, "
          "link_down, link_up, npu_fail, npu_recover, straggler, "
          "domain_fail, or domain_recover)",
          path.c_str(), name.c_str());
}

double
requireFinite(double v, const std::string &path, const char *what)
{
    ASTRA_USER_CHECK(std::isfinite(v), "%s: %s must be finite",
                     path.c_str(), what);
    return v;
}

double
requireNonNegative(double v, const std::string &path, const char *what)
{
    requireFinite(v, path, what);
    ASTRA_USER_CHECK(v >= 0.0, "%s: %s must be >= 0", path.c_str(),
                     what);
    return v;
}

FaultEvent
eventFromJson(const json::Value &doc, const std::string &path)
{
    json::checkKeys(doc, path,
                    {"at_ns", "kind", "src", "dst", "dim", "npu", "scale",
                     "compute_scale", "injection_scale", "domain"});
    ASTRA_USER_CHECK(doc.has("kind"), "%s: missing 'kind'", path.c_str());
    ASTRA_USER_CHECK(doc.has("at_ns"), "%s: missing 'at_ns'",
                     path.c_str());

    FaultEvent ev;
    ev.kind = parseKind(doc.at("kind").asString(), path + ".kind");
    ev.at = requireNonNegative(doc.at("at_ns").asNumber(),
                               path + ".at_ns", "event time");

    switch (ev.kind) {
      case FaultKind::LinkDegrade:
      case FaultKind::LinkDown:
      case FaultKind::LinkUp:
        ASTRA_USER_CHECK(doc.has("src"),
                         "%s: link faults need 'src' (source NPU)",
                         path.c_str());
        ev.src = static_cast<NpuId>(doc.at("src").asInt());
        ev.dst = static_cast<NpuId>(doc.getInt("dst", kAllFaultPeers));
        ev.dim = static_cast<int>(doc.getInt("dim", kAllFaultDims));
        if (ev.kind == FaultKind::LinkDegrade) {
            ASTRA_USER_CHECK(doc.has("scale"),
                             "%s: link_degrade needs 'scale'",
                             path.c_str());
            ev.scale = requireFinite(doc.at("scale").asNumber(),
                                     path + ".scale", "capacity scale");
            ASTRA_USER_CHECK(
                ev.scale > 0.0,
                "%s.scale: capacity scale must be > 0 "
                "(use link_down for a full outage)", path.c_str());
        }
        break;
      case FaultKind::NpuFail:
      case FaultKind::NpuRecover:
        ASTRA_USER_CHECK(doc.has("npu"), "%s: %s needs 'npu'",
                         path.c_str(), faultKindName(ev.kind));
        ev.npu = static_cast<NpuId>(doc.at("npu").asInt());
        break;
      case FaultKind::Straggler:
        ASTRA_USER_CHECK(doc.has("npu"), "%s: straggler needs 'npu'",
                         path.c_str());
        ev.npu = static_cast<NpuId>(doc.at("npu").asInt());
        ev.computeScale =
            requireFinite(doc.getNumber("compute_scale", 1.0),
                          path + ".compute_scale", "compute scale");
        ASTRA_USER_CHECK(ev.computeScale > 0.0,
                         "%s.compute_scale: must be > 0", path.c_str());
        ev.injectionScale =
            requireFinite(doc.getNumber("injection_scale", 1.0),
                          path + ".injection_scale", "injection scale");
        ASTRA_USER_CHECK(
            ev.injectionScale > 0.0,
            "%s.injection_scale: must be > 0 "
            "(use link_down for a dead NIC)", path.c_str());
        break;
      case FaultKind::DomainFail:
      case FaultKind::DomainRecover:
        ASTRA_USER_CHECK(doc.has("domain"),
                         "%s: %s needs 'domain' (a name from "
                         "fault.domains)",
                         path.c_str(), faultKindName(ev.kind));
        ev.domainName = doc.at("domain").asString();
        ASTRA_USER_CHECK(!ev.domainName.empty(),
                         "%s.domain: empty domain name", path.c_str());
        break;
    }
    return ev;
}

FailureDomain
domainFromJson(const json::Value &doc, const std::string &path)
{
    json::checkKeys(doc, path,
                    {"name", "level", "index", "npus", "mtbf_ns",
                     "mttr_ns"});
    FailureDomain d;
    ASTRA_USER_CHECK(doc.has("name"), "%s: missing 'name'",
                     path.c_str());
    d.name = doc.at("name").asString();
    ASTRA_USER_CHECK(!d.name.empty(), "%s.name: empty domain name",
                     path.c_str());
    ASTRA_USER_CHECK(doc.has("level") != doc.has("npus"),
                     "%s: give exactly one of 'level' (hierarchy "
                     "slice) or 'npus' (explicit member list)",
                     path.c_str());
    if (doc.has("level")) {
        d.level = static_cast<int>(doc.at("level").asInt());
        ASTRA_USER_CHECK(d.level >= 1,
                         "%s.level: must be >= 1 (level j = blocks of "
                         "the first j dimensions)",
                         path.c_str());
        if (doc.has("index")) {
            d.index = static_cast<int>(doc.at("index").asInt());
            ASTRA_USER_CHECK(d.index >= 0, "%s.index: must be >= 0",
                             path.c_str());
        }
    } else {
        ASTRA_USER_CHECK(!doc.has("index"),
                         "%s.index: only meaningful with 'level'",
                         path.c_str());
        for (const json::Value &n : doc.at("npus").asArray())
            d.npus.push_back(static_cast<NpuId>(n.asInt()));
        ASTRA_USER_CHECK(!d.npus.empty(), "%s.npus: empty member list",
                         path.c_str());
    }
    d.mtbfNs = requireNonNegative(doc.getNumber("mtbf_ns", 0.0),
                                  path + ".mtbf_ns", "MTBF");
    d.mttrNs = requireNonNegative(doc.getNumber("mttr_ns", 0.0),
                                  path + ".mttr_ns", "MTTR");
    return d;
}

/** Exponential variate with the given mean (inverse-CDF sampling). */
TimeNs
expSample(Rng &rng, TimeNs mean)
{
    return -mean * std::log(1.0 - rng.uniform());
}

/** Per-component RNG stream: decorrelated from the base seed so
 *  adding a component never shifts another component's timeline.
 *  Kind 1 = NPU streams, 2 = link streams, 3 = domain streams. */
Rng
componentRng(uint64_t seed, uint64_t kind, uint64_t index)
{
    return Rng(seed ^ (kind * 0x9e3779b97f4a7c15ULL) ^
               (index * 0xbf58476d1ce4e5b9ULL));
}

} // namespace

bool
FaultConfig::generatesDomainFaults() const
{
    if (domains.empty())
        return false;
    if (domainMtbfNs > 0.0)
        return true;
    for (const FailureDomain &d : domains)
        if (d.mtbfNs > 0.0)
            return true;
    return false;
}

bool
FaultConfig::empty() const
{
    return schedule.empty() && npuMtbfNs <= 0.0 && linkMtbfNs <= 0.0 &&
           !generatesDomainFaults();
}

FaultConfig
faultConfigFromJson(const json::Value &doc, const std::string &path)
{
    json::checkKeys(doc, path,
                    {"seed", "horizon_ns", "schedule", "npu_mtbf_ns",
                     "npu_mttr_ns", "link_mtbf_ns", "link_mttr_ns",
                     "link_degrade_scale", "domains", "domain_mtbf_ns",
                     "domain_mttr_ns"});

    FaultConfig cfg;
    cfg.seed = static_cast<uint64_t>(doc.getInt("seed", 1));
    cfg.horizonNs = requireNonNegative(doc.getNumber("horizon_ns", 0.0),
                                       path + ".horizon_ns", "horizon");
    cfg.npuMtbfNs = requireNonNegative(doc.getNumber("npu_mtbf_ns", 0.0),
                                       path + ".npu_mtbf_ns", "MTBF");
    cfg.npuMttrNs = requireNonNegative(doc.getNumber("npu_mttr_ns", 0.0),
                                       path + ".npu_mttr_ns", "MTTR");
    cfg.linkMtbfNs =
        requireNonNegative(doc.getNumber("link_mtbf_ns", 0.0),
                           path + ".link_mtbf_ns", "MTBF");
    cfg.linkMttrNs =
        requireNonNegative(doc.getNumber("link_mttr_ns", 0.0),
                           path + ".link_mttr_ns", "MTTR");
    cfg.linkDegradeScale =
        requireNonNegative(doc.getNumber("link_degrade_scale", 0.0),
                           path + ".link_degrade_scale", "scale");
    ASTRA_USER_CHECK(cfg.linkDegradeScale < 1.0,
                     "%s.link_degrade_scale: must be in [0, 1) "
                     "(0 = full outages)", path.c_str());
    cfg.domainMtbfNs =
        requireNonNegative(doc.getNumber("domain_mtbf_ns", 0.0),
                           path + ".domain_mtbf_ns", "MTBF");
    cfg.domainMttrNs =
        requireNonNegative(doc.getNumber("domain_mttr_ns", 0.0),
                           path + ".domain_mttr_ns", "MTTR");

    if (doc.has("domains")) {
        const json::Array &arr = doc.at("domains").asArray();
        for (size_t i = 0; i < arr.size(); ++i)
            cfg.domains.push_back(domainFromJson(
                arr[i], path + ".domains." + std::to_string(i)));
    }
    ASTRA_USER_CHECK(cfg.domainMtbfNs <= 0.0 || !cfg.domains.empty(),
                     "%s.domain_mtbf_ns: needs 'domains' to generate "
                     "failures for", path.c_str());

    bool generates = cfg.npuMtbfNs > 0.0 || cfg.linkMtbfNs > 0.0 ||
                     cfg.generatesDomainFaults();
    ASTRA_USER_CHECK(!generates || cfg.horizonNs > 0.0,
                     "%s.horizon_ns: MTBF-based generation needs a "
                     "positive horizon", path.c_str());

    if (doc.has("schedule")) {
        const json::Array &arr = doc.at("schedule").asArray();
        for (size_t i = 0; i < arr.size(); ++i)
            cfg.schedule.push_back(eventFromJson(
                arr[i], path + ".schedule." + std::to_string(i)));
    }
    return cfg;
}

CheckpointPolicy
checkpointFromJson(const json::Value &doc, const std::string &path)
{
    json::checkKeys(doc, path,
                    {"interval_ns", "cost_ns", "restart_delay_ns",
                     "restart"});
    CheckpointPolicy p;
    if (doc.has("interval_ns") && doc.at("interval_ns").isString()) {
        const std::string &s = doc.at("interval_ns").asString();
        ASTRA_USER_CHECK(s == "auto",
                         "%s.interval_ns: expected a time in ns or "
                         "\"auto\", got \"%s\"",
                         path.c_str(), s.c_str());
        p.autoInterval = true;
    } else {
        p.intervalNs =
            requireNonNegative(doc.getNumber("interval_ns", 0.0),
                               path + ".interval_ns", "interval");
    }
    p.costNs = requireNonNegative(doc.getNumber("cost_ns", 0.0),
                                  path + ".cost_ns", "cost");
    ASTRA_USER_CHECK(!p.autoInterval || p.costNs > 0.0,
                     "%s.interval_ns: \"auto\" needs a positive "
                     "cost_ns (Young/Daly trades checkpoint cost "
                     "against expected rollback)", path.c_str());
    p.restartDelayNs =
        requireNonNegative(doc.getNumber("restart_delay_ns", 0.0),
                           path + ".restart_delay_ns", "restart delay");
    p.restart = parseRestartMode(doc.getString("restart", "same"),
                                 path + ".restart");
    return p;
}

std::vector<FailureDomain>
resolveDomains(const FaultConfig &cfg, const Topology &topo)
{
    std::vector<FailureDomain> out;
    for (size_t s = 0; s < cfg.domains.size(); ++s) {
        const FailureDomain &spec = cfg.domains[s];
        std::string where = "fault.domains." + std::to_string(s) +
                            " ('" + spec.name + "')";
        if (spec.level < 0) {
            // Explicit member list.
            std::vector<uint8_t> seen(
                static_cast<size_t>(topo.npus()), 0);
            for (NpuId id : spec.npus) {
                ASTRA_USER_CHECK(id >= 0 && id < topo.npus(),
                                 "%s: npu %d out of range for %d NPUs",
                                 where.c_str(), id, topo.npus());
                ASTRA_USER_CHECK(!seen[static_cast<size_t>(id)],
                                 "%s: npu %d listed twice",
                                 where.c_str(), id);
                seen[static_cast<size_t>(id)] = 1;
            }
            FailureDomain d = spec;
            // Members sorted ascending: expansion order (and thus the
            // built timeline) is independent of how the list was
            // written.
            std::sort(d.npus.begin(), d.npus.end());
            out.push_back(std::move(d));
            continue;
        }
        ASTRA_USER_CHECK(spec.level <= topo.numDims(),
                         "%s: level %d out of range for %d dims",
                         where.c_str(), spec.level, topo.numDims());
        int block = 1;
        for (int dd = 0; dd < spec.level; ++dd)
            block *= topo.dim(dd).size;
        int instances = topo.npus() / block;
        ASTRA_USER_CHECK(spec.index < instances,
                         "%s: index %d out of range (%d level-%d "
                         "blocks of %d NPUs)",
                         where.c_str(), spec.index, instances,
                         spec.level, block);
        int first = spec.index >= 0 ? spec.index : 0;
        int last = spec.index >= 0 ? spec.index : instances - 1;
        for (int i = first; i <= last; ++i) {
            FailureDomain d;
            d.name = spec.index >= 0 ? spec.name
                                     : spec.name + std::to_string(i);
            d.level = spec.level;
            d.index = i;
            d.mtbfNs = spec.mtbfNs;
            d.mttrNs = spec.mttrNs;
            d.npus.reserve(static_cast<size_t>(block));
            for (int n = 0; n < block; ++n)
                d.npus.push_back(i * block + n);
            out.push_back(std::move(d));
        }
    }
    for (FailureDomain &d : out) {
        if (d.mtbfNs <= 0.0)
            d.mtbfNs = cfg.domainMtbfNs;
        if (d.mttrNs <= 0.0)
            d.mttrNs = cfg.domainMttrNs;
    }
    for (size_t a = 0; a < out.size(); ++a)
        for (size_t b = a + 1; b < out.size(); ++b)
            ASTRA_USER_CHECK(out[a].name != out[b].name,
                             "fault.domains: duplicate domain name "
                             "'%s' (schedule entries reference domains "
                             "by name)",
                             out[a].name.c_str());
    return out;
}

TimeNs
youngDalyInterval(TimeNs costNs, TimeNs mtbfNs)
{
    ASTRA_ASSERT(costNs > 0.0 && mtbfNs > 0.0,
                 "Young/Daly needs positive cost and MTBF");
    return std::sqrt(2.0 * costNs * mtbfNs);
}

namespace {

/** Append the constituent events a domain fail/recover expands into.
 *  Members in ascending id order; boundary links enumerated per
 *  (member, dim) in the dimension's group order — fully deterministic
 *  for a fixed (domain, topology). */
void
expandDomainEvent(const FaultEvent &root, const FailureDomain &d,
                  const Topology &topo,
                  const std::vector<uint8_t> &member,
                  std::vector<FaultEvent> &timeline)
{
    bool failing = root.kind == FaultKind::DomainFail;

    FaultEvent proto;
    proto.at = root.at;
    proto.domain = root.domain;
    proto.incident = root.incident;
    proto.domainName = root.domainName;

    auto boundary_links = [&](FaultKind kind) {
        for (NpuId id : d.npus) {
            for (int dim = 0; dim < topo.numDims(); ++dim) {
                for (NpuId peer : topo.groupInDim(id, dim)) {
                    if (peer == id || member[static_cast<size_t>(peer)])
                        continue;
                    FaultEvent link = proto;
                    link.kind = kind;
                    link.src = peer;
                    link.dst = id;
                    link.dim = dim;
                    timeline.push_back(std::move(link));
                }
            }
        }
    };
    auto member_npus = [&](FaultKind kind) {
        for (NpuId id : d.npus) {
            FaultEvent npu = proto;
            npu.kind = kind;
            npu.npu = id;
            timeline.push_back(std::move(npu));
        }
    };

    if (failing) {
        // Fail-stop every member first (the cluster layer marks the
        // whole domain unplaceable on the parent event, so admissions
        // between member failures cannot land inside the blast
        // radius), then cut the inbound boundary links. Member egress
        // is cut by the NPU fail-stops themselves.
        member_npus(FaultKind::NpuFail);
        boundary_links(FaultKind::LinkDown);
    } else {
        // Heal the fabric before the members: a zero-delay restart
        // triggered by the last member's recovery must never see a
        // boundary link still down.
        boundary_links(FaultKind::LinkUp);
        member_npus(FaultKind::NpuRecover);
    }
}

} // namespace

std::vector<FaultEvent>
buildTimeline(const FaultConfig &cfg, const Topology &topo)
{
    std::vector<FaultEvent> roots = cfg.schedule;

    // Generated NPU fail/recover pairs: one independent alternating
    // renewal process per NPU.
    if (cfg.npuMtbfNs > 0.0) {
        ASTRA_USER_CHECK(cfg.npuMttrNs > 0.0,
                         "fault.npu_mttr_ns: NPU fault generation needs "
                         "a positive MTTR");
        for (NpuId n = 0; n < topo.npus(); ++n) {
            Rng rng = componentRng(cfg.seed, 1, uint64_t(n));
            TimeNs t = expSample(rng, cfg.npuMtbfNs);
            while (t < cfg.horizonNs) {
                FaultEvent fail;
                fail.at = t;
                fail.kind = FaultKind::NpuFail;
                fail.npu = n;
                roots.push_back(fail);
                t += expSample(rng, cfg.npuMttrNs);
                FaultEvent recover = fail;
                recover.at = t;
                recover.kind = FaultKind::NpuRecover;
                roots.push_back(recover);
                t += expSample(rng, cfg.npuMtbfNs);
            }
        }
    }

    // Generated link faults: one process per (NPU, dim) egress group.
    if (cfg.linkMtbfNs > 0.0) {
        ASTRA_USER_CHECK(cfg.linkMttrNs > 0.0,
                         "fault.link_mttr_ns: link fault generation "
                         "needs a positive MTTR");
        bool degrade = cfg.linkDegradeScale > 0.0;
        for (NpuId n = 0; n < topo.npus(); ++n) {
            for (int d = 0; d < topo.numDims(); ++d) {
                uint64_t idx =
                    uint64_t(n) * uint64_t(topo.numDims()) + uint64_t(d);
                Rng rng = componentRng(cfg.seed, 2, idx);
                TimeNs t = expSample(rng, cfg.linkMtbfNs);
                while (t < cfg.horizonNs) {
                    FaultEvent down;
                    down.at = t;
                    down.kind = degrade ? FaultKind::LinkDegrade
                                        : FaultKind::LinkDown;
                    down.src = n;
                    down.dst = kAllFaultPeers;
                    down.dim = d;
                    if (degrade)
                        down.scale = cfg.linkDegradeScale;
                    roots.push_back(down);
                    t += expSample(rng, cfg.linkMttrNs);
                    FaultEvent up = down;
                    up.at = t;
                    up.kind = degrade ? FaultKind::LinkDegrade
                                      : FaultKind::LinkUp;
                    up.scale = 1.0;
                    roots.push_back(up);
                    t += expSample(rng, cfg.linkMtbfNs);
                }
            }
        }
    }

    // Correlated domain fail/recover pairs: one alternating renewal
    // process per resolved domain, seeded by the domain's ordinal so
    // a fixed (seed, topology) reproduces identical blast-radius
    // timelines.
    std::vector<FailureDomain> domains = resolveDomains(cfg, topo);
    for (size_t i = 0; i < domains.size(); ++i) {
        const FailureDomain &d = domains[i];
        if (d.mtbfNs <= 0.0)
            continue;
        ASTRA_USER_CHECK(d.mttrNs > 0.0,
                         "fault.domain_mttr_ns: domain fault "
                         "generation needs a positive MTTR (domain "
                         "'%s')", d.name.c_str());
        Rng rng = componentRng(cfg.seed, 3, uint64_t(i));
        TimeNs t = expSample(rng, d.mtbfNs);
        while (t < cfg.horizonNs) {
            FaultEvent fail;
            fail.at = t;
            fail.kind = FaultKind::DomainFail;
            fail.domain = static_cast<int>(i);
            fail.domainName = d.name;
            roots.push_back(fail);
            t += expSample(rng, d.mttrNs);
            FaultEvent recover = fail;
            recover.at = t;
            recover.kind = FaultKind::DomainRecover;
            roots.push_back(recover);
            t += expSample(rng, d.mtbfNs);
        }
    }

    // Resolve schedule entries' by-name domain references and
    // range-check every root against the topology.
    for (size_t i = 0; i < roots.size(); ++i) {
        FaultEvent &ev = roots[i];
        std::string where = "fault event " + std::to_string(i) + " (" +
                            std::string(faultKindName(ev.kind)) + ")";
        switch (ev.kind) {
          case FaultKind::LinkDegrade:
          case FaultKind::LinkDown:
          case FaultKind::LinkUp:
            ASTRA_USER_CHECK(ev.src >= 0 && ev.src < topo.npus(),
                             "%s: src %d out of range for %d NPUs",
                             where.c_str(), ev.src, topo.npus());
            ASTRA_USER_CHECK(
                ev.dst < topo.npus(),
                "%s: dst %d out of range for %d NPUs", where.c_str(),
                ev.dst, topo.npus());
            ASTRA_USER_CHECK(
                ev.dim < topo.numDims(),
                "%s: dim %d out of range for %d dims", where.c_str(),
                ev.dim, topo.numDims());
            break;
          case FaultKind::NpuFail:
          case FaultKind::NpuRecover:
          case FaultKind::Straggler:
            ASTRA_USER_CHECK(ev.npu >= 0 && ev.npu < topo.npus(),
                             "%s: npu %d out of range for %d NPUs",
                             where.c_str(), ev.npu, topo.npus());
            break;
          case FaultKind::DomainFail:
          case FaultKind::DomainRecover:
            if (ev.domain < 0) {
                for (size_t j = 0; j < domains.size(); ++j)
                    if (domains[j].name == ev.domainName) {
                        ev.domain = static_cast<int>(j);
                        break;
                    }
                ASTRA_USER_CHECK(
                    ev.domain >= 0,
                    "%s: unknown domain '%s' (declare it under "
                    "fault.domains)",
                    where.c_str(), ev.domainName.c_str());
            }
            break;
        }
    }

    // Stable sort keeps same-time events in schedule-then-generated
    // order — fully deterministic for a given (config, topology).
    std::stable_sort(roots.begin(), roots.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at < b.at;
                     });

    // Assign fault-incident ids in time order and expand domain
    // events in place (expansion preserves the sort: constituents
    // share their parent's timestamp and follow it).
    std::vector<FaultEvent> timeline;
    timeline.reserve(roots.size());
    std::vector<uint8_t> member(static_cast<size_t>(topo.npus()), 0);
    int incident = 0;
    for (FaultEvent &ev : roots) {
        switch (ev.kind) {
          case FaultKind::NpuFail:
            ev.incident = incident++;
            timeline.push_back(std::move(ev));
            break;
          case FaultKind::DomainFail:
          case FaultKind::DomainRecover: {
            if (ev.kind == FaultKind::DomainFail)
                ev.incident = incident++;
            const FailureDomain &d =
                domains[static_cast<size_t>(ev.domain)];
            std::fill(member.begin(), member.end(), 0);
            for (NpuId id : d.npus)
                member[static_cast<size_t>(id)] = 1;
            timeline.push_back(ev);
            expandDomainEvent(ev, d, topo, member, timeline);
            break;
          }
          default:
            timeline.push_back(std::move(ev));
            break;
        }
    }
    return timeline;
}

} // namespace fault
} // namespace astra
