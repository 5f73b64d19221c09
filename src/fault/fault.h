/**
 * @file
 * Fault model: event kinds, schedules, failure domains, and
 * checkpoint policies.
 *
 * A fault scenario is a deterministic timeline of FaultEvents — either
 * written out explicitly in JSON (`fault.schedule`) or generated from
 * per-component MTBF/MTTR means with a seeded RNG (common/rng.h), so
 * the same config always produces the same timeline. The timeline is
 * applied to a running simulation by the FaultInjector
 * (fault/injector.h); this header is deliberately independent of the
 * network/event layers so configuration code can parse and validate
 * fault specs without pulling in a backend.
 *
 * Addressing: link faults name `(src, dst, dim)` in *NPU* coordinates.
 * `dst == kAllFaultPeers` means every egress link of `src`;
 * `dim == kAllFaultDims` means all dimensions. NPU faults and
 * stragglers name a single `npu`. Domain faults name a FailureDomain
 * (`fault.domains`) and expand deterministically into constituent NPU
 * fail-stops plus down-links crossing the domain boundary (see
 * buildTimeline). See docs/fault.md for the full model and
 * per-backend fidelity caveats.
 */
#ifndef ASTRA_FAULT_FAULT_H_
#define ASTRA_FAULT_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/units.h"
#include "topology/topology.h"

namespace astra {
namespace fault {

/** Wildcard destination: all egress links of `src`. */
constexpr NpuId kAllFaultPeers = -1;
/** Wildcard dimension: all topology dimensions. */
constexpr int kAllFaultDims = -1;

/** What happens at a timeline point. */
enum class FaultKind {
    LinkDegrade,   //!< scale link capacity by `scale` (0 < scale).
    LinkDown,      //!< link fully out: flows stall / packets park.
    LinkUp,        //!< restore a downed link (capacity scale kept).
    NpuFail,       //!< fail-stop NPU: job rollback, egress links down.
    NpuRecover,    //!< NPU healthy again; eligible for restart/placement.
    Straggler,     //!< persistent per-NPU compute/injection slowdown.
    DomainFail,    //!< whole failure domain (rack/pod) fails at once.
    DomainRecover, //!< the domain's members and boundary links return.
};

const char *faultKindName(FaultKind kind);

/** One timeline entry; meaningful fields depend on `kind`. */
struct FaultEvent
{
    TimeNs at = 0.0;
    FaultKind kind = FaultKind::LinkDown;

    // -- Link faults (LinkDegrade / LinkDown / LinkUp).
    NpuId src = -1;
    NpuId dst = kAllFaultPeers;
    int dim = kAllFaultDims;
    double scale = 1.0; //!< LinkDegrade capacity multiplier (> 0).

    // -- NPU faults and stragglers.
    NpuId npu = -1;
    double computeScale = 1.0;   //!< Straggler compute-time multiplier.
    double injectionScale = 1.0; //!< Straggler egress-capacity scale.

    // -- Failure-domain attribution (docs/fault.md).
    /** Resolved domain index for DomainFail/DomainRecover and for the
     *  constituent events they expand into; -1 = no domain. */
    int domain = -1;
    /**
     * Fault-incident id: every NpuFail/DomainFail root in the built
     * timeline gets a distinct id, and the constituent events a
     * domain failure expands into inherit their parent's. Lets the
     * cluster layer report jobs-disrupted-per-incident blast radius
     * instead of counting every member NPU of one rack outage as a
     * separate failure. -1 = not a fail incident.
     */
    int incident = -1;
    /** Resolved domain name (diagnostics, trace instants); also how
     *  schedule entries reference a domain before resolution. */
    std::string domainName;
};

/**
 * A named failure domain: a set of NPUs that fail (and recover)
 * together, plus the links crossing its boundary.
 *
 * Two spec forms (mutually exclusive):
 *  - hierarchy slice: `level` j in [1, numDims] carves the topology
 *    into npus()/P_j contiguous blocks of P_j NPUs (P_j = product of
 *    the first j dimension sizes — the mixed-radix id layout makes
 *    every block contiguous). `index` picks one block; index == -1 in
 *    a spec expands to *all* blocks at that level, auto-named
 *    "<name>0", "<name>1", ....
 *  - explicit: `npus` lists arbitrary members (level == -1).
 *
 * `mtbfNs`/`mttrNs` override the scenario-wide domain means for this
 * spec (0 = inherit), so one flaky rack can fail faster than its
 * peers — exactly what fault-aware placement scores against. A
 * resolved domain (resolveDomains) holds its effective means: the
 * inherited ones are filled in.
 */
struct FailureDomain
{
    std::string name;
    int level = -1;
    int index = -1;
    std::vector<NpuId> npus;
    TimeNs mtbfNs = 0.0;
    TimeNs mttrNs = 0.0;
};

/** Response to an NPU/domain failure hitting a job (cluster layer). */
enum class RestartMode {
    Same,    //!< wait for recovery, restart in place from snapshot.
    Requeue, //!< fresh placement, cold start (snapshot discarded).
    Migrate, //!< fresh placement, resume from the carried snapshot.
    Spare,   //!< swap failed NPUs for reserved spares, resume from
             //!< snapshot in place (falls back to Migrate when the
             //!< spare pool can't cover the failure).
};

RestartMode parseRestartMode(const std::string &name,
                             const std::string &path);

/**
 * Training-stack response to NPU failures (cluster layer).
 *
 * Checkpoints are optimistic and coordinated: at each interval the
 * job snapshots its engine progress instantaneously and every rank
 * pays `costNs` on its compute unit. On an NPU failure the job loses
 * all work since the last snapshot and restarts `restartDelayNs`
 * after recovery (or after the failure, for the re-placing modes),
 * per its RestartMode.
 *
 * `autoInterval` (JSON: `interval_ns: "auto"`) derives the interval
 * from the Young/Daly closed form sqrt(2 * costNs * MTBF) at launch
 * time, with the job's effective MTBF combining the per-NPU stream
 * and every failure domain intersecting its placement (docs/fault.md
 * "Checkpoint auto-tuning"). The sweep layer's resilience tuner
 * (sweep/resilience.h) refines the same seed point against simulated
 * goodput.
 */
struct CheckpointPolicy
{
    TimeNs intervalNs = 0.0; //!< 0 disables periodic checkpoints.
    bool autoInterval = false; //!< resolve intervalNs via Young/Daly.
    TimeNs costNs = 0.0;     //!< per-rank compute stall per checkpoint.
    TimeNs restartDelayNs = 0.0;
    RestartMode restart = RestartMode::Same;
};

/**
 * A complete fault scenario: an explicit schedule plus optional
 * MTBF/MTTR generation parameters (both may be combined; generated
 * events are merged into the explicit schedule and time-sorted).
 */
struct FaultConfig
{
    uint64_t seed = 1;
    /** Generation horizon; generated events beyond it are dropped. */
    TimeNs horizonNs = 0.0;

    std::vector<FaultEvent> schedule;

    // -- Per-NPU fail/recover generation (0 disables).
    TimeNs npuMtbfNs = 0.0;
    TimeNs npuMttrNs = 0.0;

    // -- Per-(NPU, dim) egress link fault generation (0 disables).
    TimeNs linkMtbfNs = 0.0;
    TimeNs linkMttrNs = 0.0;
    /** 0 = generated link faults are full outages (down/up pairs);
     *  in (0, 1) = degrade to this capacity scale instead. */
    double linkDegradeScale = 0.0;

    // -- Correlated whole-domain fail/recover generation. One seeded
    //    stream per *resolved* domain (componentRng kind 3), so a
    //    fixed (seed, topology) reproduces identical blast-radius
    //    timelines and adding a domain never shifts another's stream.
    std::vector<FailureDomain> domains;
    TimeNs domainMtbfNs = 0.0; //!< default per-domain MTBF (0 disables).
    TimeNs domainMttrNs = 0.0;

    /** True when any domain has a failure-generation stream. */
    bool generatesDomainFaults() const;

    /** True when the scenario injects nothing at all. */
    bool empty() const;
};

/**
 * Parse a fault scenario from its JSON object. Validates kinds,
 * scales (degrades must be > 0 — use link_down for a full outage),
 * and field presence with `path`-qualified fatal() messages
 * ("fault.schedule.3.src: ...").
 */
FaultConfig faultConfigFromJson(const json::Value &doc,
                                const std::string &path = "fault");

/** Parse a checkpoint policy object (interval_ns — a time or "auto" —
 *  / cost_ns / restart_delay_ns /
 *  restart: "same"|"requeue"|"migrate"|"spare"). */
CheckpointPolicy checkpointFromJson(const json::Value &doc,
                                    const std::string &path);

/**
 * Resolve the config's domain specs against `topo`: expand
 * all-instances level specs into one FailureDomain per block, fill in
 * slice members and inherited MTBF/MTTR means, validate explicit
 * member ids, and require unique names (schedule entries and
 * diagnostics reference domains by name). Deterministic; fatal() on
 * invalid specs.
 */
std::vector<FailureDomain> resolveDomains(const FaultConfig &cfg,
                                          const Topology &topo);

/**
 * Materialize the full timeline for `topo`: generate MTBF/MTTR events
 * per component with seeded per-component RNG streams, merge with the
 * explicit schedule, stable-sort by time, assign fault-incident ids,
 * and expand every DomainFail/DomainRecover into its constituent
 * events — per member NPU a fail-stop (ascending id order), plus a
 * LinkDown for every inbound link crossing the domain boundary
 * (member egress is cut by the NPU fail-stop itself). Recovery is
 * symmetric with boundary LinkUps emitted *before* the member
 * NpuRecover events so a zero-delay restart never races a half-healed
 * fabric. Range-checks every event against the topology (fatal() on
 * out-of-range components). Byte-identical across repeated calls for
 * a fixed (config, topology).
 */
std::vector<FaultEvent> buildTimeline(const FaultConfig &cfg,
                                      const Topology &topo);

/** Young/Daly optimal checkpoint interval sqrt(2 * costNs * mtbfNs)
 *  (first-order optimum for checkpoint cost << MTBF). */
TimeNs youngDalyInterval(TimeNs costNs, TimeNs mtbfNs);

} // namespace fault
} // namespace astra

#endif // ASTRA_FAULT_FAULT_H_
