/**
 * @file
 * The run harness shared by Simulator and ClusterSimulator: it owns
 * the topology, the event queue and the fabric, attaches tracing
 * (with queue self-profiling), heartbeats and the fault injector
 * through one code path, and at run end folds them into the Report
 * (trace counters, trace analysis and export, footprint rollup) and
 * the run manifest. Owners build their job stacks on network() and
 * supply only what differs: progress, collective-engine footprint,
 * and their fault hooks. Tracing and telemetry never schedule events
 * (docs/trace.md, docs/observability.md).
 */
#ifndef ASTRA_ASTRA_RUN_HARNESS_H_
#define ASTRA_ASTRA_RUN_HARNESS_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "astra/report.h"
#include "event/event_queue.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "network/network_api.h"
#include "telemetry/telemetry.h"
#include "topology/topology.h"
#include "trace/tracer.h"

namespace astra {

/** Run-level configuration common to SimulatorConfig and
 *  ClusterConfig: the fabric and the services RunHarness attaches. */
struct RunConfig
{
    NetworkBackendKind backend = NetworkBackendKind::Analytical;
    /**
     * Optional fault scenario (docs/fault.md). A plain Simulator
     * rejects NPU fail/recover events (they need the cluster layer's
     * checkpoint/restart machinery). Absent or empty scenarios leave
     * every code path bit-identical to a fault-free build.
     */
    std::optional<fault::FaultConfig> fault;
    /** Tracing & self-profiling (docs/trace.md); off by default. */
    trace::TraceConfig trace;
    /** Heartbeats and run manifest (docs/observability.md); off by
     *  default. The Report's footprint rollup is always measured. */
    telemetry::TelemetryConfig telemetry;

    /** Files the run writes besides the manifest, in manifest order:
     *  heartbeat stream, trace, utilization series, analysis report
     *  (unset ones omitted, and the trace files when detail is off). */
    std::vector<std::string> outputFiles() const;
};

/** The manifest fields that name a run of `kind` on `topo` under
 *  `cfg`: config hash, backend, topology notation, NPUs, fault seed. */
telemetry::ManifestInfo runIdentity(const char *kind, const Topology &topo,
                                    const RunConfig &cfg);

/** Live-state providers the owner hands to observe(). */
struct RunProbes
{
    /** Executed / total workload nodes. */
    std::function<telemetry::Progress()> progress;
    /** Bytes held by the owner's collective engines. */
    std::function<size_t()> collectiveBytes;
    /** Per-job progress entries (cluster runs; null elsewhere). */
    std::function<std::vector<telemetry::JobProgress>()> jobs;
};

/** See file comment. */
class RunHarness
{
  public:
    RunHarness(Topology topo, RunConfig cfg);

    RunHarness(const RunHarness &) = delete;
    RunHarness &operator=(const RunHarness &) = delete;

    const Topology &topology() const { return topo_; }
    EventQueue &eventQueue() { return eq_; }
    NetworkApi &network() { return *net_; }
    trace::Tracer *tracer() { return tracer_.get(); }
    telemetry::Monitor *monitor() { return monitor_.get(); }
    /** True when the config carries a non-empty fault scenario. */
    bool faulted() const { return cfg_.fault && !cfg_.fault->empty(); }

    /** Create the tracer if the config enables it, naming pid 0
     *  `process`, and attach the fabric and the queue self-profile.
     *  Returns it (null when off) for the owner's own layers. */
    trace::Tracer *startTracing(const std::string &process);

    /** Register the owner's providers and attach the heartbeat
     *  monitor if the config enables heartbeats. What the providers
     *  read must stay valid until finishReport(). */
    void observe(RunProbes probes);

    /** Build and start the fault injector when faulted(); the harness
     *  fills in `hooks.net` and the tracer. */
    void startFaults(fault::FaultHooks hooks);

    /** Emit the final heartbeat and detach the monitor. */
    void stopHeartbeats();

    /** Fold the run into `report`: executed events, fabric traffic,
     *  applied faults, trace counters, analysis of process
     *  `analysis_pid` (if `trace.analysis`), trace export, footprint
     *  rollup, heartbeat count and peak RSS. Call after observe(). */
    void finishReport(Report &report, int32_t analysis_pid);

    /** Write the run manifest, if configured, listing outputFiles()
     *  and then `report_files`, which the caller wrote from `report`. */
    void writeManifest(const char *kind, const Report &report,
                       const std::vector<std::string> &report_files) const;

  private:
    Topology topo_;
    RunConfig cfg_;
    EventQueue eq_;
    std::unique_ptr<NetworkApi> net_;
    RunProbes probes_;
    QueueProfile profile_; //!< attached to eq_ while tracing.
    std::unique_ptr<trace::Tracer> tracer_;
    std::unique_ptr<telemetry::Monitor> monitor_;
    std::unique_ptr<fault::FaultInjector> injector_;
};

} // namespace astra

#endif // ASTRA_ASTRA_RUN_HARNESS_H_
