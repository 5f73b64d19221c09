/**
 * @file
 * Multi-threaded sweep batch runner with a config-hash result cache.
 *
 * Each configuration of a SweepSpec is an independent simulation — a
 * Simulator owns its own EventQueue, and all remaining cross-simulation
 * state is immutable, atomic, or thread_local (see the threading
 * contract in src/event/inline_event.h) — so a batch is embarrassingly
 * parallel. The runner places whole simulations on worker threads:
 *
 *  - Shared index: each worker claims the next unclaimed configuration
 *    from one atomic counter until none are left. Tasks are whole
 *    simulations (milliseconds to seconds), so the counter is
 *    uncontended and imbalance (sweeps mixing cheap and expensive
 *    grid points) is absorbed one configuration at a time. With one
 *    thread the same loop runs on the calling thread.
 *  - Deterministic results: every result is written to the slot of its
 *    configuration index, so the outcome is ordered by grid position
 *    regardless of which thread finished first, and — because each
 *    simulation is internally deterministic and serialized reports
 *    exclude host timing — a batch yields byte-identical ResultStore
 *    contents at any thread count.
 *  - Result cache: an optional ResultCache keyed by the configuration
 *    document hash skips simulations whose config is unchanged since a
 *    previous run (incremental re-runs of edited sweeps). Cache files
 *    round-trip through JSON with %.17g doubles, so cached reports are
 *    bit-equal to freshly computed ones.
 *
 * A configuration that fails validation (fatal() throws FatalError)
 * does not abort the batch: the error is recorded on its result row
 * and the remaining configurations run normally.
 */
#ifndef ASTRA_SWEEP_RUNNER_H_
#define ASTRA_SWEEP_RUNNER_H_

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "astra/report.h"
#include "sweep/spec.h"

namespace astra {
namespace sweep {

/**
 * Build fingerprint stamped into result-cache files as their version
 * string: a hash of `kSpecSchemaVersion` *and* the serialized field
 * list of a Report. The manual schema bump still invalidates caches
 * when configuration semantics change, but a report-shape change
 * (field added, removed, or renamed) now orphans old cache files
 * automatically — forgetting the bump can no longer serve stale rows
 * shaped for a different report schema (docs/sweep.md).
 */
const std::string &cacheFingerprint();

/**
 * Thread-safe configuration-hash -> Report cache with JSON
 * persistence. Lookups and inserts may come from any worker thread.
 */
class ResultCache
{
  public:
    ResultCache() = default;

    /** Merge a cache file's entries into this cache; a missing file
     *  loads nothing. Returns the number of entries loaded. */
    size_t loadFile(const std::string &path);

    /** Persist the cache; fatal() if unwritable. */
    void saveFile(const std::string &path) const;

    /** Fetch the cached report for `hash`; true on hit. */
    bool lookup(uint64_t hash, Report *out) const;

    void insert(uint64_t hash, const Report &report);

    size_t size() const;

  private:
    mutable std::mutex mutex_;
    std::unordered_map<uint64_t, json::Value> entries_;
};

/** Batch execution options. */
struct BatchOptions
{
    /** Worker threads; <= 0 uses std::thread::hardware_concurrency().
     *  1 runs inline on the calling thread. */
    int threads = 1;
    /** Optional cache consulted before and filled after each run. */
    ResultCache *cache = nullptr;
    /**
     * Sweep-level telemetry (docs/observability.md). `file` +
     * `intervalMs` drive batch heartbeats — NDJSON lines with rows
     * done/total, cache hits, failures, and per-worker occupancy,
     * sampled on a wall-clock cadence by a dedicated thread (batch
     * progress is inherently wall-paced; results are untouched).
     * `intervalEvents` is ignored at the batch level.
     */
    telemetry::TelemetryConfig telemetry;
    /**
     * Directory for per-row run manifests ("" = none). Each
     * configuration — including rows served from the cache — writes
     * `manifest-<confighash16>.json` there, and its result row
     * carries the path (SweepResult::manifest), so every row is
     * resolvable to the provenance record of what produced it.
     */
    std::string manifestDir;
};

/** Outcome of one configuration. */
struct SweepResult
{
    /** Identity of the grid point. `config.doc` is released (reset to
     *  null) once the run finishes — expansion is deterministic, so
     *  SweepSpec::config(index) regenerates it on demand — keeping
     *  batch memory bounded by reports rather than config documents. */
    SweepConfig config;
    Report report;
    bool fromCache = false;
    bool failed = false;
    std::string error; //!< failure message when failed.
    /** Path of this row's run manifest ("" unless the batch ran with
     *  BatchOptions::manifestDir). */
    std::string manifest;
};

/** Outcome of a whole batch. */
struct BatchOutcome
{
    /** One result per configuration, ordered by config index. */
    std::vector<SweepResult> results;
    int threadsUsed = 1;
    double wallSeconds = 0.0; //!< host wall-clock of the batch.
    size_t cacheHits = 0;
    size_t failures = 0;
};

/** Run every configuration of `spec`; see file comment. */
BatchOutcome runBatch(const SweepSpec &spec,
                      const BatchOptions &opts = {});

/** Run a single configuration document to a Report (no threading; the
 *  sequential building block runBatch parallelizes). */
Report runConfig(const json::Value &doc);

} // namespace sweep
} // namespace astra

#endif // ASTRA_SWEEP_RUNNER_H_
