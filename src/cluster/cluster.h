/**
 * @file
 * Multi-tenant cluster simulation: N jobs co-executing on ONE shared
 * fabric (docs/cluster.md).
 *
 * A ClusterSimulator owns one EventQueue and one full-topology
 * network backend; every job gets its own workload, placement
 * (cluster/placement.h), rank-translation network view
 * (cluster/rank_view.h), collective engine, memory model, per-NPU
 * system layers, and execution engine — all driven by the shared
 * queue. Jobs arrive over time (JobSpec::arrival), wait in an
 * admission queue until a placement is free (FIFO or backfill), run
 * co-scheduled with whatever else holds the fabric, and report
 * per-job results: queueing delay, duration, and — against a fresh
 * isolated re-run of the same job at the same placement — an
 * interference slowdown that quantifies what co-tenancy cost.
 *
 * Fidelity note: inter-job interference is only visible to backends
 * that model shared links. The flow backend resolves it by max-min
 * fair sharing and the packet backend by store-and-forward queueing;
 * the analytical backends serialize per-(NPU, dim) transmit ports
 * only, so disjoint jobs can never contend there (slowdown stays
 * 1.0). See docs/cluster.md.
 */
#ifndef ASTRA_CLUSTER_CLUSTER_H_
#define ASTRA_CLUSTER_CLUSTER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "astra/simulator.h"
#include "cluster/placement.h"
#include "cluster/rank_view.h"
#include "common/json.h"
#include "workload/engine.h"

namespace astra {
namespace cluster {

/** Admission-queue policy. */
enum class AdmissionPolicy {
    Fifo,     //!< strict order; the head blocks everything behind it.
    Backfill, //!< later jobs may start whenever they fit.
};

const char *admissionPolicyName(AdmissionPolicy p);
AdmissionPolicy parseAdmissionPolicy(const std::string &name);

/**
 * Cluster-level configuration. The run-level fields (RunConfig) cover
 * the whole cluster: the fault scenario supports the full model,
 * including NPU fail/recover — a failed NPU takes its resident job
 * down (rollback to the last checkpoint, restart per the job's
 * CheckpointPolicy) and is excluded from placement until it recovers.
 * One shared tracer covers every job (pid 0 is the fabric, job `id`
 * traces under pid id + 1); isolated-baseline re-runs are never
 * traced. Heartbeats aggregate workload nodes across the jobs and
 * carry per-job entries.
 */
struct ClusterConfig : RunConfig
{
    AdmissionPolicy admission = AdmissionPolicy::Fifo;
    /**
     * Re-run each job alone (same placement, fresh queue + fabric)
     * to compute its interference slowdown. Costs one extra
     * simulation per job; disable for pure capacity studies.
     */
    bool isolatedBaselines = true;
    /** Checkpoint policy for jobs that don't set their own. The
     *  default (zeroed) policy means "no checkpointing": a failed
     *  job re-executes from the beginning. */
    fault::CheckpointPolicy defaultCheckpoint;
    /**
     * Spare capacity for RestartMode::Spare (docs/fault.md
     * "Spare-capacity restart"): reserve either the `spareCount`
     * highest NPU ids or one whole failure domain (`spareDomain`
     * names a resolved domain from the fault config). Reserved NPUs
     * are excluded from every placement search; spare-mode restarts
     * consume them to patch failed placements. At most one of the
     * two may be set.
     */
    int spareCount = 0;
    std::string spareDomain;
};

/** One job to run on the cluster. */
struct JobSpec
{
    std::string name;
    TimeNs arrival = 0.0; //!< submission time.
    int priority = 0;     //!< higher admits first among the queued.
    int size = 0;         //!< NPUs (ignored for Explicit: list length).
    PlacementPolicy placement = PlacementPolicy::Contiguous;
    /** Explicit policy: the cluster NPUs, in job-local rank order. */
    std::vector<NpuId> explicitNpus;
    /** Explicit policy: the job topology (product must equal the NPU
     *  count); sliced policies derive theirs from the cluster. */
    std::optional<Topology> explicitTopo;
    /** Per-job system/memory configuration (backend field unused —
     *  the fabric is the cluster's). */
    SimulatorConfig cfg;
    /**
     * The job's workload, in job-local NPU ids against the job
     * topology (sliceTopology(cluster, size), or the explicit one).
     * Exactly one of `workload` / `workloadDoc` must be set;
     * workloadDoc uses the sweep workload schema (sweep/spec.h) and
     * is built against the job topology at addJob time.
     */
    std::optional<Workload> workload;
    json::Value workloadDoc;
    /** Per-job checkpoint/restart policy; falls back to
     *  ClusterConfig::defaultCheckpoint when unset. */
    std::optional<fault::CheckpointPolicy> checkpoint;
    /**
     * User-supplied runtime estimate (0 = none). Backfill admission
     * becomes EASY-style when estimates are present: a later job may
     * jump a blocked queue head only if its estimate fits before the
     * head's projected start (docs/cluster.md "Backfill"). Purely an
     * admission hint; never affects execution.
     */
    TimeNs estimatedDuration = 0.0;
};

/** Per-job outcome. */
struct JobResult
{
    int id = -1;
    std::string name;
    int size = 0;
    std::string placement; //!< JobPlacement::describe().
    TimeNs arrival = 0.0;
    TimeNs admitted = 0.0;  //!< placement granted, execution started.
    TimeNs finished = 0.0;  //!< last workload node completed.
    TimeNs queueingDelay = 0.0;     //!< admitted - arrival.
    TimeNs duration = 0.0;          //!< finished - admitted.
    TimeNs isolatedDuration = 0.0;  //!< 0 when baselines disabled.
    /** duration / isolatedDuration (0 when baselines disabled). */
    double interferenceSlowdown = 0.0;
    /**
     * Failure-resilience outcome (docs/fault.md). `numFaults` counts
     * the NPU failures that hit this job; `lostWork` sums the
     * simulated time rolled back to the last checkpoint on each
     * failure; `recovery` sums failure-to-restart gaps; `restarts`
     * counts re-executions (checkpoint-resume or from scratch);
     * `goodput` = isolatedDuration / duration — the fraction of the
     * job's wall time that was ideal fault-free progress (0 when
     * baselines are disabled). A `failed` job never finished (its
     * NPUs never recovered, it could not be re-placed, or its
     * workload deadlocked); `error` carries the diagnostic and the
     * timing/goodput fields are left 0.
     */
    uint64_t numFaults = 0;
    TimeNs lostWork = 0.0;
    TimeNs recovery = 0.0;
    int restarts = 0;
    double goodput = 0.0;
    /** Fraction of the job's wall time it was making (or able to
     *  make) progress: 1 - recovery / duration. 1.0 for an
     *  undisturbed job, 0 when it never finished. */
    double availability = 0.0;
    bool failed = false;
    std::string error;
    /** This job's own link-busy ns per cluster dimension (separable
     *  per-tenant attribution; see RankViewNetwork::ownBusy). */
    std::vector<double> ownBusyPerDim;
    /**
     * Per-job report: breakdowns over [admitted, finished] per local
     * NPU; events = cluster events executed during the residency;
     * messages/bytesPerDim = this job's own traffic (cluster dims);
     * busyTimePerDim = fabric busy accrued during the residency
     * (all tenants); maxLinkBusyNs = fabric value at finish.
     */
    Report report;
};

/** Whole-cluster outcome. */
struct ClusterReport
{
    TimeNs makespan = 0.0;   //!< final simulated time (queue drained).
    uint64_t totalEvents = 0;
    uint64_t totalMessages = 0;
    std::vector<JobResult> jobs;
    /**
     * Cluster-aggregate Report (what a cluster config yields inside a
     * sweep): totalTime = makespan, per-NPU breakdowns summed over
     * the jobs resident on each cluster NPU, fabric-level traffic
     * stats, and the means of the per-job queueing delay /
     * interference slowdown.
     */
    Report aggregate;

    // -- Failure-resilience aggregates (docs/fault.md). All stay 0 on
    //    fault-free runs so serialized reports are unchanged.
    /** Mean jobs disrupted per fail incident (an NpuFail root or one
     *  whole DomainFail counts as a single incident). */
    double blastRadius = 0.0;
    /** Busy fraction of the reserved spare pool over the makespan. */
    double spareUtilization = 0.0;
    /** Nearest-rank percentiles of the failure-to-restart gaps. */
    TimeNs recoveryP50 = 0.0;
    TimeNs recoveryP95 = 0.0;

    double meanQueueingDelay() const;
    double meanInterferenceSlowdown() const;
    double maxInterferenceSlowdown() const;
    /** Mean goodput over the jobs that measured one (finished with
     *  isolated baselines enabled); 0 when none did. */
    double meanGoodput() const;
    /** Mean availability over the finished jobs; 0 when none did. */
    double meanAvailability() const;

    std::string summary() const;
    json::Value toJson() const;
    /** Tidy per-job CSV (incl. queueing_delay_ns and
     *  interference_slowdown columns). */
    std::string jobsCsv() const;
};

/** See file comment. */
class ClusterSimulator
{
  public:
    explicit ClusterSimulator(Topology topo, ClusterConfig cfg = {});

    ClusterSimulator(const ClusterSimulator &) = delete;
    ClusterSimulator &operator=(const ClusterSimulator &) = delete;
    ~ClusterSimulator();

    /**
     * Register a job before run(). Validates the size/placement
     * against the (empty) cluster and builds + validates the
     * workload against the job topology. Returns the job id (index
     * into ClusterReport::jobs).
     */
    int addJob(JobSpec spec);

    /** Admit + co-execute every registered job; callable once. */
    ClusterReport run();

    const Topology &topology() const { return topo_; }
    EventQueue &eventQueue() { return eq_; }
    NetworkApi &network() { return net_; }
    int jobCount() const { return static_cast<int>(jobs_.size()); }

    /** The run's shared tracer (null unless cfg.trace enabled it);
     *  exposed so tests can inspect the timeline in memory. */
    trace::Tracer *tracer() { return harness_.tracer(); }

    /** The run's heartbeat monitor (null unless cfg.telemetry enabled
     *  heartbeats); valid after run() returns. */
    telemetry::Monitor *monitor() { return harness_.monitor(); }

  private:
    struct JobRuntime;
    struct JobStack;

    /** Build a job's full runtime stack (rank view, collective
     *  engine, memory, system layers, execution engine) on `fabric`,
     *  shared by co-executed admission and the isolated baseline so
     *  the two configurations cannot drift apart. Builds in place:
     *  the execution engine keeps a reference to the stack's system
     *  vector, so `stack` must already sit at its final address.
     *  `shared` marks the co-executed (shared-fabric) configuration:
     *  only it inherits straggler compute scales, the incarnation
     *  tag salt, and the checkpoint resume snapshot — the isolated
     *  baseline is always a fresh fault-free run. */
    void buildStack(JobRuntime &job, NetworkApi &fabric,
                    JobStack &stack, bool shared);

    void tryAdmit();
    bool admit(JobRuntime &job);
    /** Start (or restart) a placed job's current incarnation on the
     *  shared fabric. */
    void launch(JobRuntime &job);
    void enqueuePending(size_t id);
    void onJobFinished(size_t index);
    TimeNs runIsolated(JobRuntime &job);
    JobResult finalizeJob(JobRuntime &job);
    /** Lifecycle instant "<what> <job name>" on the job's track. */
    void traceLifecycle(const JobRuntime &job, const char *what);
    /** Close the running incarnation's lifecycle span, marking why. */
    void endRunSpan(JobRuntime &job, const char *what);
    /** Bytes held by every job's collective engines, abandoned
     *  incarnations included (they stay alive until the simulator
     *  dies). */
    size_t collectiveBytes() const;

    // Failure-resilience machinery (docs/fault.md), in resilience.cc.
    /** Resolve failure domains, reserve the spare pool and start the
     *  fault injector; runs before the first admission. */
    void startResilience();
    /** Fill the domain/spare aggregates (blast radius, recovery
     *  percentiles, spare utilization) once the makespan is known. */
    void finishResilience(ClusterReport &report);
    void scheduleCheckpoint(size_t index);
    void resolveAutoInterval(JobRuntime &job);
    void onStraggler(NpuId global, double compute_scale);
    void onNpuFail(const fault::FaultEvent &ev);
    void onNpuRecover(const fault::FaultEvent &ev);
    void onDomainFail(const fault::FaultEvent &ev);
    void failJob(JobRuntime &job, const fault::FaultEvent *ev);
    /** Relaunch a failed job in place after its restart delay, unless
     *  a newer failure supersedes it or its placement is down again. */
    void scheduleRelaunch(JobRuntime &job);
    bool placementHealthy(const JobRuntime &job) const;
    /** Blast-radius accounting: record fail incident `incident`. */
    void markIncident(int incident);
    JobRuntime *residentJob(NpuId global);
    bool allSettled() const;
    /** Release a job's placement, accruing consumed-spare busy time. */
    void releasePlacement(JobRuntime &job);
    /** Scored-placement cost function for `policy` (avoid_degraded /
     *  anti_affinity), closed over the live fault state. */
    PlacementManager::SliceScorer sliceScorer(PlacementPolicy policy);
    /** "name (k/n NPUs faulted), ..." over the currently degraded
     *  failure domains; empty when none are. */
    std::string faultedDomainSummary() const;

    ClusterConfig cfg_;
    RunHarness harness_;
    // Shorthands into harness_ (stable for the simulator's lifetime).
    const Topology &topo_;
    EventQueue &eq_;
    NetworkApi &net_;
    PlacementManager placer_;
    std::vector<std::unique_ptr<JobRuntime>> jobs_;
    /** Ids of jobs submitted but not yet admitted, kept sorted by
     *  (priority desc, arrival, id) — the admission order. */
    std::vector<size_t> pending_;
    /** Last compute-scale fault applied per cluster NPU (stragglers
     *  outlive job turnover: new tenants inherit the slow NPU). */
    std::vector<double> npuComputeScale_;
    /** Finish time of the last job to complete. With faults or
     *  checkpoint timers active the drained queue's clock can sit on
     *  a no-op tail event past the last completion, so the makespan
     *  is taken here instead of from eq_.now(). */
    TimeNs lastFinish_ = 0.0;
    int runningJobs_ = 0;
    bool ran_ = false;
    /** Outstanding checkpoint timer events. When the event queue holds
     *  nothing else, the fabric is quiescent and re-arming a timer
     *  would never terminate (see scheduleCheckpoint). */
    int ckptTimersPending_ = 0;

    // -- Failure-domain & spare state (docs/fault.md). All empty/zero
    //    unless the scenario declares domains or spares.
    std::vector<fault::FailureDomain> domains_; //!< resolved vs topo_.
    /** NPU id -> indices into domains_ containing it. */
    std::vector<std::vector<int>> domainsOfNpu_;
    /** Claim time per consumed spare NPU (-1 = not a consumed spare);
     *  accrued into spareBusyNs_ when its placement is released. */
    std::vector<TimeNs> spareClaimedAt_;
    double spareBusyNs_ = 0.0;
    int initialSpareCount_ = 0;
    /** Failure-to-restart gap samples (recovery percentiles). */
    std::vector<TimeNs> recoveryGaps_;
    /** Blast-radius accounting: distinct fail incidents applied, and
     *  job disruptions attributed to them. */
    std::vector<uint8_t> incidentFired_;
    uint64_t disruptions_ = 0;
};

} // namespace cluster
} // namespace astra

#endif // ASTRA_CLUSTER_CLUSTER_H_
