/**
 * @file
 * Live run telemetry: progress/ETA heartbeats, per-subsystem memory
 * accounting, and run manifests (docs/observability.md).
 *
 * PR 7/8 made *simulated time* observable; this layer makes the
 * simulator observable as a *host process*. Three pillars:
 *
 *  - **Heartbeats**: a Monitor polled from the event loop on an
 *    event-count or wall-clock cadence emits NDJSON records carrying
 *    progress (executed workload nodes / total, per job in cluster
 *    runs), sim-time advance rate, event throughput, queue depth,
 *    active flows, solver-work deltas, per-subsystem memory
 *    footprint, and an ETA estimate.
 *  - **Memory accounting**: a `bytesInUse()` protocol implemented by
 *    the pooled subsystems (SlotPool, EventQueue, LinkGraph, the
 *    network backends, CollectiveEngine, Tracer, sweep ResultStore)
 *    is rolled up per subsystem into heartbeats and the final Report,
 *    making bytes/flow and bytes/NPU first-class numbers. Accounting
 *    is capacity-based (vector/pool high-water capacities, not malloc
 *    truth) and therefore *deterministic*: two runs of the same
 *    config report identical footprints. Peak RSS (VmHWM) is captured
 *    separately and, like every wall-clock number, never serialized.
 *  - **Run manifests**: a machine-readable provenance record per run
 *    (config hash via the sweep cache machinery, schema versions,
 *    backend, topology shape, peak footprint, wall breakdown, output
 *    inventory) so any result row is traceable to what produced it.
 *
 * Contract (same as tracing, docs/trace.md): telemetry off costs one
 * null-pointer check per event and is bit-identical; telemetry on is
 * purely observational — it never schedules events, never consumes
 * randomness, and never feeds back into the simulation. Wall-derived
 * heartbeat fields are `wall_`-prefixed and quarantined from the
 * deterministic ones exactly like the tracer's `wall_*` counters.
 */
#ifndef ASTRA_TELEMETRY_TELEMETRY_H_
#define ASTRA_TELEMETRY_TELEMETRY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/json.h"
#include "common/output_file.h"
#include "common/units.h"

namespace astra {

class Topology;
struct Report;

namespace telemetry {

/**
 * The `telemetry:{...}` config block (and the `--heartbeat*` /
 * `--manifest` CLI flags layered over it). All defaults off: a
 * default-constructed config means no monitor is created and the
 * simulation runs the exact pre-telemetry code path.
 */
struct TelemetryConfig
{
    /** Heartbeat NDJSON output path ("" = keep records in memory
     *  only; heartbeats still run if a cadence is set). */
    std::string file;
    /** Wall-clock cadence in milliseconds (0 = off). Wall cadence
     *  produces a machine-dependent *number* of heartbeats; use
     *  `intervalEvents` when deterministic beats matter. */
    double intervalMs = 0.0;
    /** Event-count cadence: emit every N executed events (0 = off).
     *  Deterministic: beat timing and count are functions of the
     *  simulation alone. */
    uint64_t intervalEvents = 0;
    /** Run-manifest output path ("" = none). */
    std::string manifest;

    /** Config hash of the originating JSON document, injected by the
     *  layer that owns the document (sweep runner, CLIs). Not a JSON
     *  key; 0 = unknown. */
    uint64_t configHash = 0;

    /** True if a heartbeat monitor should be attached. */
    bool
    heartbeatsEnabled() const
    {
        return !file.empty() || intervalMs > 0.0 || intervalEvents > 0;
    }
    /** True if anything (heartbeats or manifest) is on. */
    bool enabled() const { return heartbeatsEnabled() || !manifest.empty(); }
};

/** Default event cadence when a heartbeat file is requested without
 *  an explicit cadence. */
constexpr uint64_t kDefaultIntervalEvents = 65536;

/** Parse a `telemetry:{}` block; unknown keys are rejected with a
 *  path-qualified error. A heartbeat file without a cadence implies
 *  the kDefaultIntervalEvents event cadence, so the beats stay
 *  deterministic unless wall cadence is explicitly requested. This is
 *  the only reader of the block: the flags write into it first. */
TelemetryConfig telemetryConfigFromJson(const json::Value &doc,
                                        const std::string &path);

/** The shared telemetry CLI flags (docs/cli.md), each keyed to the
 *  `telemetry` key it sets. */
FlagGroup cliFlags();

/** telemetryConfigFromJson of `base` with the flags written over it. */
TelemetryConfig telemetryConfigFromCli(const CommandLine &cl,
                                       json::Value base = json::Value());

/** One named memory-footprint source ("event_queue", "network", ...).
 *  The getter is sampled at each heartbeat and once at run end; it
 *  must stay valid for the monitor's lifetime. */
struct FootprintSource
{
    std::string name;
    std::function<size_t()> bytes;
};

/** Progress snapshot from the workload layer. */
struct Progress
{
    size_t done = 0;
    size_t total = 0;
};

/** Per-job progress entry (cluster runs). */
struct JobProgress
{
    std::string name;
    size_t done = 0;
    size_t total = 0;
};

/**
 * One heartbeat. Deterministic fields are pure functions of the
 * simulation (byte-identical across repeats under event cadence);
 * every wall-derived field is `wall`-prefixed and quarantined.
 */
struct HeartbeatRecord
{
    // -- deterministic --
    uint64_t seq = 0;           //!< heartbeat ordinal, 0-based.
    TimeNs simTimeNs = 0.0;     //!< event-queue now().
    uint64_t events = 0;        //!< executed events so far.
    size_t queueDepth = 0;      //!< pending events.
    size_t nodesDone = 0;       //!< executed workload nodes.
    size_t nodesTotal = 0;
    double progress = 0.0;      //!< nodesDone / nodesTotal (0 if unknown).
    double etaSimNs = 0.0;      //!< remaining sim time estimate.
    size_t active = 0;          //!< in-flight flows/messages.
    uint64_t solverSolves = 0;  //!< cumulative max-min solves.
    uint64_t solverSolvesDelta = 0; //!< since the previous beat.
    size_t footprintBytes = 0;  //!< total across sources.
    std::vector<std::pair<std::string, size_t>> footprint;
    std::vector<JobProgress> jobs; //!< cluster runs only.
    // -- wall-clock (machine-dependent, never compared) --
    double wallSeconds = 0.0;
    double wallSimNsPerSec = 0.0;
    double wallEventsPerSec = 0.0;
    double wallEtaSeconds = 0.0;
};

/**
 * The heartbeat monitor. Attached to an EventQueue via setMonitor();
 * the queue calls poll() when its per-event countdown hits zero and
 * re-arms with the returned value, so the off cost is one null check
 * and the on cost is one decrement per event plus the (rare) poll.
 *
 * Purely observational: poll() reads the registered providers,
 * appends a HeartbeatRecord, and (if configured) writes one NDJSON
 * line. It never touches simulation state.
 */
class Monitor
{
  public:
    explicit Monitor(const TelemetryConfig &cfg);

    Monitor(const Monitor &) = delete;
    Monitor &operator=(const Monitor &) = delete;

    /** Workload-progress provider (ExecutionEngine counts). */
    void setProgress(std::function<Progress()> fn) { progress_ = std::move(fn); }
    /** In-flight flow/message-count provider. */
    void setActive(std::function<size_t()> fn) { active_ = std::move(fn); }
    /** Cumulative solver-solve-count provider (flow backend). */
    void setSolves(std::function<uint64_t()> fn) { solves_ = std::move(fn); }
    /** Per-job progress provider (cluster runs). */
    void setJobs(std::function<std::vector<JobProgress>()> fn)
    {
        jobs_ = std::move(fn);
    }
    /** Register a named footprint source (sampled every beat). */
    void addFootprint(std::string name, std::function<size_t()> bytes);

    /**
     * Called by the event queue. `now`/`executed`/`pending` describe
     * the queue at the sampled event. Returns the countdown (events)
     * until the next poll. Under wall cadence the poll probes the
     * clock but only emits once `intervalMs` elapsed.
     */
    uint64_t poll(TimeNs now, uint64_t executed, size_t pending);

    /** Initial countdown for EventQueue::setMonitor. */
    uint64_t initialCountdown() const;

    /** Emit one final heartbeat (run end), flush and close the sink.
     *  Idempotent. */
    void finish(TimeNs now, uint64_t executed, size_t pending);

    /** True when beats fire on the event-count cadence only, i.e. the
     *  beat *count* is deterministic. */
    bool deterministicCadence() const
    {
        return cfg_.intervalEvents > 0 && cfg_.intervalMs <= 0.0;
    }

    const std::vector<HeartbeatRecord> &records() const { return records_; }
    size_t heartbeatCount() const { return records_.size(); }

    /** Latest total footprint rollup (recomputed; run-end callers). */
    size_t sampleFootprint(std::vector<std::pair<std::string, size_t>> *by_source) const;

    const TelemetryConfig &config() const { return cfg_; }

  private:
    void emit(TimeNs now, uint64_t executed, size_t pending);
    void writeLine(const HeartbeatRecord &r);

    TelemetryConfig cfg_;
    std::function<Progress()> progress_;
    std::function<size_t()> active_;
    std::function<uint64_t()> solves_;
    std::function<std::vector<JobProgress>()> jobs_;
    std::vector<FootprintSource> sources_;
    std::vector<HeartbeatRecord> records_;
    std::optional<OutputFile> out_;
    bool finished_ = false;
    double startWall_ = 0.0;    //!< steady-clock origin (seconds).
    double lastEmitWall_ = 0.0; //!< wall seconds at the last emit.
    uint64_t lastSolves_ = 0;
    /** Wall-cadence clock-probe granularity (events per probe). */
    static constexpr uint64_t kWallProbeEvents = 4096;
};

/** Process peak resident-set size in bytes (VmHWM); 0 where
 *  unavailable. Machine- and history-dependent: report it, never
 *  serialize it into deterministic documents. */
size_t peakRssBytes();

/** Monotonic wall clock in seconds (shared helper). */
double wallNow();

/**
 * Run-manifest inputs besides the run's Report: what names the run.
 * The writer combines these with the Report's footprint, heartbeat,
 * RSS and wall-time fields and the ambient schema/fingerprint
 * constants (sweep::cacheFingerprint, kSpecSchemaVersion) into one
 * provenance JSON document.
 */
struct ManifestInfo
{
    std::string kind;      //!< "simulator" | "cluster" | "sweep-row".
    uint64_t configHash = 0; //!< sweep::configHash of the doc; 0 = n/a.
    std::string backend;
    std::string topology;  //!< shape string, e.g. "Ring(8) x Switch(32)".
    int npus = 0;
    uint64_t seed = 0;     //!< fault seed (0 = none).
    bool fromCache = false; //!< sweep rows served from the ResultCache.
    /** Named wall-time slices ("run", "trace_write", ...). */
    std::vector<std::pair<std::string, double>> wallBreakdown;
    /** Output files this run produced (heartbeat NDJSON, trace JSON,
     *  CSV, ...). */
    std::vector<std::string> outputs;
};

/** Manifest schema version (bump when the document shape changes). */
constexpr int kManifestSchemaVersion = 1;

/** Topology shape in the notation grammar ("Ring(8,200,300)_..."),
 *  for the manifest's `topology` field. */
std::string topologyNotation(const Topology &topo);

/** Build the manifest document of the run `info` names, which
 *  produced `report` (exposed for tests). */
json::Value manifestToJson(const ManifestInfo &info, const Report &report);

/** Write `manifest.json` to `path`. */
void writeManifest(const std::string &path, const ManifestInfo &info,
                   const Report &report);

} // namespace telemetry
} // namespace astra

#endif // ASTRA_TELEMETRY_TELEMETRY_H_
