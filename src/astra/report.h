/**
 * @file
 * Simulation results: end-to-end time, per-NPU and aggregate runtime
 * breakdowns (the compute / exposed comm / exposed local mem /
 * exposed remote mem / idle split of Fig. 9 and Fig. 11), and
 * simulation-speed metadata.
 */
#ifndef ASTRA_ASTRA_REPORT_H_
#define ASTRA_ASTRA_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/stats.h"
#include "common/units.h"
#include "topology/topology.h"

namespace astra {

/** Result of one Simulator::run. */
struct Report
{
    std::string workload;
    TimeNs totalTime = 0.0;       //!< simulated end-to-end time.
    RuntimeBreakdown average;     //!< mean across NPUs.
    std::vector<RuntimeBreakdown> perNpu;
    uint64_t events = 0;          //!< DES events executed.
    uint64_t messages = 0;        //!< network messages simulated.
    std::vector<double> bytesPerDim; //!< network payload per dim.
    std::vector<double> busyTimePerDim; //!< link-busy ns per dim.
    std::vector<int> linksPerDim; //!< serialization points per dim.
    double maxLinkBusyNs = 0.0;   //!< busiest single link's busy ns.
    /**
     * Multi-tenant metrics (src/cluster/). For a per-job report:
     * how long the job waited in the admission queue, and its
     * co-executed duration divided by its isolated-baseline duration
     * (> 1 means shared-fabric contention slowed it down). For a
     * cluster-aggregate report: means across jobs. Plain single-job
     * Simulator runs leave both at 0 (slowdown 0 = "not measured").
     */
    double queueingDelayNs = 0.0;
    double interferenceSlowdown = 0.0;
    /**
     * Failure-resilience metrics (src/fault/, docs/fault.md).
     * `numFaults` counts injected fault events; `lostWorkNs` sums the
     * simulated time rolled back to the last checkpoint on NPU
     * failures; `recoveryTimeNs` sums failure-to-restart gaps; and
     * `goodput` is ideal fault-free time / achieved time (per job:
     * its isolated fault-free duration over its achieved duration;
     * aggregate: mean across finished jobs). 0 = "not measured" —
     * goodput needs the cluster layer's isolated baselines.
     */
    TimeNs lostWorkNs = 0.0;
    TimeNs recoveryTimeNs = 0.0;
    uint64_t numFaults = 0;
    double goodput = 0.0;
    /**
     * Failure-domain resilience metrics (docs/fault.md "Failure
     * domains & placement policies"), cluster runs only.
     * `availability` = 1 - recovery / duration (per job; aggregate:
     * mean over finished jobs); `blastRadius` = mean jobs disrupted
     * per fail incident (one NpuFail root or one whole DomainFail);
     * `recoveryP50Ns`/`recoveryP95Ns` are nearest-rank percentiles of
     * failure-to-restart gaps; `spareUtilization` is the busy
     * fraction of the reserved spare pool. All 0 ("not measured") on
     * fault-free runs, and serialized only when nonzero so plain-run
     * report JSON is unchanged.
     */
    double availability = 0.0;
    double blastRadius = 0.0;
    TimeNs recoveryP50Ns = 0.0;
    TimeNs recoveryP95Ns = 0.0;
    double spareUtilization = 0.0;
    double wallSeconds = 0.0;     //!< host wall-clock of the run.
    /**
     * Memory-accounting rollup (src/telemetry/, docs/observability.md):
     * heap bytes held by the simulator's own subsystems, sampled via
     * the bytesInUse() footprint protocol at the end of the run (when
     * pool high-water capacities are final). Capacity-based, so a
     * deterministic function of the configuration — serialized
     * unconditionally, which makes bytes/flow and bytes/NPU
     * first-class sweep metrics. `bytesPerFlow` divides the network
     * backend's footprint by its in-flight-unit pool size (0 for the
     * analytical backend, which keeps no per-message state);
     * `bytesPerNpu` divides the total footprint by the NPU count.
     * `telemetryHeartbeats` counts heartbeat records emitted —
     * deterministic (and serialized) only under a pure event-count
     * cadence, 0 otherwise. `peakRssBytes` (VmHWM) is process-wide
     * and nondeterministic: like wallSeconds it is NEVER serialized.
     */
    size_t peakFootprintBytes = 0;
    std::vector<std::pair<std::string, size_t>> footprintBySubsystem;
    double bytesPerFlow = 0.0;
    double bytesPerNpu = 0.0;
    uint64_t telemetryHeartbeats = 0;
    size_t peakRssBytes = 0;
    /**
     * Self-profiling counters (src/trace/, docs/trace.md), filled
     * only when tracing is enabled. `traceCounters` (scalars) and
     * `traceHistograms` (log2-bucketed, e.g. event-queue depth) are
     * pure functions of the configuration and are serialized when
     * non-empty — an untraced run's report JSON is byte-identical to
     * one from a build without tracing, preserving the sweep cache
     * fingerprint. `traceWallSeconds` holds per-subsystem host-time
     * attribution (solver vs callbacks vs trace export) and, like
     * `wallSeconds`, is never serialized.
     */
    std::map<std::string, double> traceCounters;
    std::map<std::string, std::vector<uint64_t>> traceHistograms;
    std::map<std::string, double> traceWallSeconds;
    /**
     * Trace-analysis results (src/trace/analysis/, docs/trace.md
     * "Analysis"), filled only when `trace.analysis` is enabled:
     * critical-path length, per-dimension exposed communication as
     * measured from the trace (chunk-phase time not covered by
     * compute/memory spans), and the busiest fabric link with its
     * busy share. Serialized only when criticalPathNs > 0, keeping
     * the default report JSON — and the sweep cache fingerprint —
     * unchanged. Like the trace counters, these are deterministic
     * functions of the configuration.
     */
    TimeNs criticalPathNs = 0.0;
    std::vector<double> traceExposedCommPerDim;
    std::string bottleneckLink;
    double bottleneckLinkShare = 0.0;

    /** Exposed-communication share of total runtime [0, 1]. */
    double exposedCommFraction() const;

    /**
     * Mean injection-bandwidth utilization of each network dimension
     * over the whole run: payload bytes sent per NPU divided by the
     * dimension's bandwidth-time product. Needs the topology the run
     * used (per-dim bandwidths).
     */
    std::vector<double> dimUtilization(const Topology &topo) const;

    /**
     * Busy fraction of the single hottest network link over the
     * whole run (hot-link saturation; what sweeps rank by). The
     * backend's NetworkStats define what a "link" is — TX ports for
     * the analytical backend, explicit directed links for the flow
     * and packet backends. For the congestion-resolving backends
     * (flow, packet) this is a physical occupancy in [0, 1]; for the
     * analytical backends it is a *demand* ratio — `analytical-pure`
     * does not serialize overlapping sends, so a value above 1 means
     * the port was asked for more than it could physically carry
     * (exactly the oversubscription a congestion-aware backend would
     * resolve into longer runtimes).
     */
    double maxLinkUtilization() const;

    /** Mean link busy fraction per dimension
     *  (busyTimePerDim / (linksPerDim * totalTime)). */
    std::vector<double> dimBusyFraction() const;

    /** Render a human-readable summary block. */
    std::string summary() const;
};

/**
 * The scalar Report metrics, one line each. This list drives the
 * scalar keys of reportToJson/reportFromJson, the sweep CSV metric
 * columns (in list order), the ReportMetric enum (sweep::Metric) and
 * metric lookup by name: adding a scalar metric is one line here.
 * Columns: enumerator, name (the JSON key), CSV column (Csv = the
 * name, NoCsv, or an alias), CSV number format (Fixed3 = %.3f,
 * Count = %llu, Fixed6 = %.6f), JSON policy (Always, NoJson,
 * Positive = only when > 0, or With(M) = only when metric M > 0, so a
 * group of keys appears together; recovery p50 rides with p95, which
 * as a nearest-rank percentile is never below it), and the value as an
 * expression of `r` (a Report) that reportFromJson assigns back.
 */
#define ASTRA_REPORT_METRICS(X)                                         \
    X(TotalTime, "total_time_ns", "total_ns", Fixed3, Always, r.totalTime) \
    X(Compute, "compute_ns", Csv, Fixed3, NoJson, r.average.compute)   \
    X(ExposedComm, "exposed_comm_ns", Csv, Fixed3, NoJson,              \
      r.average.exposedComm)                                            \
    X(ExposedLocalMem, "exposed_local_mem_ns", Csv, Fixed3, NoJson,     \
      r.average.exposedLocalMem)                                        \
    X(ExposedRemoteMem, "exposed_remote_mem_ns", Csv, Fixed3, NoJson,   \
      r.average.exposedRemoteMem)                                       \
    X(Idle, "idle_ns", Csv, Fixed3, NoJson, r.average.idle)             \
    X(Events, "events", Csv, Count, Always, r.events)                   \
    X(Messages, "messages", Csv, Count, Always, r.messages)             \
    X(MaxLinkBusy, "max_link_busy_ns", NoCsv, Fixed3, Always,           \
      r.maxLinkBusyNs)                                                  \
    X(MaxLinkUtil, "max_link_util", Csv, Fixed6, NoJson,                \
      r.maxLinkUtilization())                                           \
    X(QueueingDelay, "queueing_delay_ns", Csv, Fixed3, Always,          \
      r.queueingDelayNs)                                                \
    X(InterferenceSlowdown, "interference_slowdown", Csv, Fixed6, Always, \
      r.interferenceSlowdown)                                           \
    X(LostWork, "lost_work_ns", Csv, Fixed3, Always, r.lostWorkNs)      \
    X(RecoveryTime, "recovery_time_ns", Csv, Fixed3, Always,            \
      r.recoveryTimeNs)                                                 \
    X(NumFaults, "num_faults", Csv, Count, Always, r.numFaults)         \
    X(Goodput, "goodput", Csv, Fixed6, Always, r.goodput)               \
    X(CriticalPath, "critical_path_ns", Csv, Fixed3, Positive,          \
      r.criticalPathNs)                                                 \
    X(BottleneckLinkShare, "bottleneck_link_share", NoCsv, Fixed6,      \
      With(CriticalPath), r.bottleneckLinkShare)                        \
    X(Availability, "availability", Csv, Fixed6, Positive, r.availability) \
    X(BlastRadius, "blast_radius", Csv, Fixed6, Positive, r.blastRadius) \
    X(SpareUtilization, "spare_utilization", Csv, Fixed6, Positive,     \
      r.spareUtilization)                                               \
    X(RecoveryP50, "recovery_p50_ns", NoCsv, Fixed3, With(RecoveryP95), \
      r.recoveryP50Ns)                                                  \
    X(RecoveryP95, "recovery_p95_ns", NoCsv, Fixed3, Positive,          \
      r.recoveryP95Ns)                                                  \
    X(PeakFootprint, "peak_footprint_bytes", Csv, Count, Always,        \
      r.peakFootprintBytes)                                             \
    X(BytesPerFlow, "bytes_per_flow", Csv, Fixed3, Always, r.bytesPerFlow) \
    X(BytesPerNpu, "bytes_per_npu", NoCsv, Fixed3, Always, r.bytesPerNpu) \
    X(TelemetryHeartbeats, "telemetry_heartbeats", NoCsv, Count, Positive, \
      r.telemetryHeartbeats)

/** Scalar report metrics (see ASTRA_REPORT_METRICS). */
enum class ReportMetric {
#define ASTRA_REPORT_METRIC_ID(id, ...) id,
    ASTRA_REPORT_METRICS(ASTRA_REPORT_METRIC_ID)
#undef ASTRA_REPORT_METRIC_ID
};

/** One resolved line of ASTRA_REPORT_METRICS. */
struct ReportMetricInfo
{
    enum Format { Fixed3, Count, Fixed6 };
    enum When { NoJson, Always, Positive };

    const char *name;
    const char *csv;      //!< CSV column; nullptr = not in the CSV.
    Format format;
    When json;
    ReportMetric gate;    //!< Positive: the metric that must be > 0.
    double (*get)(const Report &);
    void (*set)(Report &, double);
};

/** The metric table, in list order (indexable by ReportMetric). */
const std::vector<ReportMetricInfo> &reportMetrics();

/** Table line of one metric. */
const ReportMetricInfo &reportMetric(ReportMetric m);

/**
 * Serialize a Report's *simulated* results to JSON. Host wall-clock
 * (`wallSeconds`) is deliberately excluded: it is nondeterministic,
 * and the sweep engine's determinism guarantee (identical stores for
 * any thread count) plus its result cache both rely on serialized
 * reports being a pure function of the configuration.
 */
json::Value reportToJson(const Report &report);

/** Inverse of reportToJson (wallSeconds comes back as 0). */
Report reportFromJson(const json::Value &doc);

} // namespace astra

#endif // ASTRA_ASTRA_REPORT_H_
