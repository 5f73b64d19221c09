#include "sweep/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "astra/config.h"
#include "cluster/config.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "telemetry/telemetry.h"

namespace astra {
namespace sweep {

namespace {

uint64_t
parseHashKey(const std::string &key)
{
    return std::strtoull(key.c_str(), nullptr, 16);
}

/**
 * Batch heartbeat emitter (docs/observability.md). A dedicated
 * sampling thread wakes on the wall-clock cadence and appends one
 * NDJSON line with rows done/total, cache hits, failures, and
 * per-worker occupancy. Constructed only when telemetry asks for it;
 * workers touch nothing but a few atomics, so results are untouched
 * and the batch stays byte-identical at any thread count.
 */
class SweepPulse
{
  public:
    SweepPulse(const telemetry::TelemetryConfig &cfg, size_t total,
               int workers)
        : total_(total), busy_(static_cast<size_t>(workers))
    {
        for (auto &b : busy_)
            b.store(0, std::memory_order_relaxed);
        if (!cfg.file.empty())
            out_.emplace(cfg.file, "heartbeat file");
        intervalMs_ = cfg.intervalMs > 0.0 ? cfg.intervalMs : 500.0;
        start_ = telemetry::wallNow();
        sampler_ = std::thread([this] { loop(); });
    }

    ~SweepPulse()
    {
        try {
            stop();
        } catch (...) {
            // Only reached while another error propagates.
        }
    }

    /** Final beat + shutdown; idempotent. A write that failed on the
     *  sampler thread is raised here, on the caller's. */
    void
    stop()
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (stopped_)
                return;
            stopped_ = true;
        }
        wake_.notify_all();
        sampler_.join();
        if (failure_)
            std::rethrow_exception(failure_);
        emit(); // final beat: rows_done == rows_total on success.
        if (out_)
            out_->close();
    }

    void
    markBusy(int worker, bool busy)
    {
        busy_[static_cast<size_t>(worker)].store(
            busy ? 1 : 0, std::memory_order_relaxed);
    }

    void
    rowDone(bool from_cache, bool failed)
    {
        done_.fetch_add(1, std::memory_order_relaxed);
        if (from_cache)
            cacheHits_.fetch_add(1, std::memory_order_relaxed);
        if (failed)
            failures_.fetch_add(1, std::memory_order_relaxed);
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            wake_.wait_for(lock, std::chrono::duration<double, std::milli>(
                                     intervalMs_));
            if (stopped_)
                return;
            try {
                emit();
            } catch (...) {
                // Thrown here it would terminate the process.
                failure_ = std::current_exception();
                return;
            }
        }
    }

    void
    emit()
    {
        if (!out_)
            return;
        size_t done = done_.load(std::memory_order_relaxed);
        double wall = telemetry::wallNow() - start_;
        double rate = wall > 0.0 ? double(done) / wall : 0.0;
        double eta = rate > 0.0 && done < total_
                         ? double(total_ - done) / rate
                         : 0.0;
        size_t busy = 0;
        std::string workers = "[";
        for (size_t w = 0; w < busy_.size(); ++w) {
            int b = busy_[w].load(std::memory_order_relaxed);
            busy += static_cast<size_t>(b);
            workers += (w > 0 ? "," : "") + std::to_string(b);
        }
        workers += "]";
        out_->put(detail::formatV(
            "{\"seq\":%llu,\"rows_done\":%zu,\"rows_total\":%zu,"
            "\"cache_hits\":%zu,\"failures\":%zu,\"workers_busy\":%zu,"
            "\"worker_busy\":%s,\"wall_seconds\":%.6f,"
            "\"wall_rows_per_s\":%.6f,\"wall_eta_seconds\":%.6f}\n",
            static_cast<unsigned long long>(seq_++), done, total_,
            cacheHits_.load(std::memory_order_relaxed),
            failures_.load(std::memory_order_relaxed), busy,
            workers.c_str(), wall, rate, eta));
        out_->flush();
    }

    size_t total_;
    std::vector<std::atomic<int>> busy_;
    std::atomic<size_t> done_{0};
    std::atomic<size_t> cacheHits_{0};
    std::atomic<size_t> failures_{0};
    std::optional<OutputFile> out_;
    std::exception_ptr failure_; //!< set on the sampler thread.
    double intervalMs_ = 500.0;
    double start_ = 0.0;
    uint64_t seq_ = 0;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::thread sampler_;
    bool stopped_ = false;
};

/**
 * Per-row run manifest (docs/observability.md): written for every
 * configuration the batch resolved — including cache hits, whose
 * manifest records from_cache — so any result row can be traced to a
 * provenance document whose config_hash matches the cache key.
 */
void
writeRowManifest(const json::Value &doc, SweepResult &slot,
                 const std::string &dir)
{
    RunBlocks run = runBlocksFromJson(doc);
    telemetry::ManifestInfo info = runIdentity("sweep-row", run.topo,
                                               run.cfg);
    info.fromCache = slot.fromCache;
    info.wallBreakdown.emplace_back("run", slot.report.wallSeconds);
    std::string path =
        dir + "/manifest-" + configHashString(slot.config.hash) +
        ".json";
    telemetry::writeManifest(path, info, slot.report);
    slot.manifest = path;
}

void
runOne(const SweepSpec &spec, size_t index, const BatchOptions &opts,
       SweepResult &slot)
{
    ResultCache *cache = opts.cache;
    // std::exception (not just FatalError): a worker thread has no
    // one to rethrow to — anything escaping the thread body would
    // std::terminate the whole batch. bad_alloc from an oversized
    // grid point is a per-row failure like any misconfiguration.
    try {
        slot.config = spec.config(index);
    } catch (const std::exception &err) {
        // Expansion itself can be a user error (an axis path that
        // traverses a scalar); isolate it like a failed run so the
        // rest of the batch survives. The row keeps placeholder axis
        // values so result tables stay rectangular.
        slot.config.index = index;
        slot.config.label = "expansion failed";
        slot.config.axisValues.assign(spec.axes().size(), "-");
        slot.failed = true;
        slot.error = err.what();
        return;
    }
    // The expanded document is only needed to run (and is cheap to
    // regenerate via spec.config(index)); drop it afterwards so batch
    // memory is bounded by reports, not by grid-size x base-doc-size.
    json::Value doc = std::move(slot.config.doc);
    slot.config.doc = json::Value();

    if (cache != nullptr) {
        bool hit = false;
        try {
            hit = cache->lookup(slot.config.hash, &slot.report);
        } catch (const std::exception &err) {
            // A malformed cached report (hand-edited or wrong-shape
            // entry) is a miss, not an error — same degrade-to-cold
            // contract as loadFile.
            warnT("sweep", "ignoring malformed cache entry %s: %s",
                 configHashString(slot.config.hash).c_str(), err.what());
        }
        if (hit) {
            slot.fromCache = true;
            if (!opts.manifestDir.empty())
                writeRowManifest(doc, slot, opts.manifestDir);
            return;
        }
    }
    try {
        slot.report = runConfig(doc);
    } catch (const std::exception &err) {
        slot.failed = true;
        slot.error = err.what();
        return;
    }
    if (cache != nullptr)
        cache->insert(slot.config.hash, slot.report);
    if (!opts.manifestDir.empty())
        writeRowManifest(doc, slot, opts.manifestDir);
}

} // namespace

const std::string &
cacheFingerprint()
{
    // configHash already salts with kSpecSchemaVersion and hashes the
    // canonical dump; feeding it a default-constructed Report's JSON
    // makes the fingerprint cover every field key reportToJson writes
    // (json::Object keys are ordered), so the fingerprint moves
    // whenever the report schema does — regardless of whether anyone
    // remembered to bump the constant.
    static const std::string fp =
        configHashString(configHash(reportToJson(Report{})));
    return fp;
}

size_t
ResultCache::loadFile(const std::string &path)
{
    std::FILE *probe = std::fopen(path.c_str(), "rb");
    if (probe == nullptr)
        return 0; // first run: empty cache.
    std::fclose(probe);

    // The cache is disposable acceleration state: a corrupt,
    // truncated, or wrong-shape file degrades to a cold cache, never
    // to an error — so the *entire* read runs under the try, and
    // entries are staged before merging so a mid-file failure cannot
    // leave a partial load.
    std::unordered_map<uint64_t, json::Value> staged;
    try {
        json::Value doc = json::parseFile(path);
        // Version mismatch = the file was written by a build whose
        // configuration semantics or report schema differ; its
        // entries are stale even where hashes collide with ours. The
        // version string is the automatic build fingerprint, so a
        // report-shape change invalidates without a manual bump.
        if (doc.getString("version", "") != cacheFingerprint()) {
            warnT("sweep",
                  "ignoring result cache '%s': version '%s' != '%s' "
                 "(results from a different build are stale)",
                 path.c_str(), doc.getString("version", "").c_str(),
                 cacheFingerprint().c_str());
            return 0;
        }
        if (!doc.has("entries"))
            return 0;
        for (const auto &[key, report] : doc.at("entries").asObject())
            staged.emplace(parseHashKey(key), report.clone());
    } catch (const FatalError &err) {
        warnT("sweep", "ignoring unreadable result cache '%s': %s",
              path.c_str(),
             err.what());
        return 0;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[hash, report] : staged)
        entries_[hash] = std::move(report);
    return staged.size();
}

void
ResultCache::saveFile(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    json::Object entries;
    for (const auto &[hash, report] : entries_)
        entries[configHashString(hash)] = report.clone();
    json::Object doc;
    doc["kind"] = json::Value("astra-sweep-result-cache");
    doc["version"] = json::Value(cacheFingerprint());
    doc["entries"] = json::Value(std::move(entries));
    // Write-then-rename so an interrupted or failed save can only ever
    // leave the previous cache (or a stray .tmp), never a truncated
    // file: a failed write is fatal before the rename.
    std::string tmp = path + ".tmp";
    OutputFile::write(tmp, "result cache",
                      json::Value(std::move(doc)).dump(2) + "\n");
    ASTRA_USER_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
                     "cannot move '%s' into place", tmp.c_str());
}

bool
ResultCache::lookup(uint64_t hash, Report *out) const
{
    // Copy the document under the lock (cheap shared_ptr copies) and
    // deserialize outside it, so warm-cache batches don't serialize
    // every worker on the O(npus) reportFromJson walk.
    json::Value doc;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(hash);
        if (it == entries_.end())
            return false;
        doc = it->second;
    }
    *out = reportFromJson(doc);
    return true;
}

void
ResultCache::insert(uint64_t hash, const Report &report)
{
    // Serialize outside nothing — reportToJson is pure; only the map
    // mutation needs the lock.
    json::Value doc = reportToJson(report);
    std::lock_guard<std::mutex> lock(mutex_);
    entries_[hash] = std::move(doc);
}

size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

Report
runConfig(const json::Value &doc)
{
    // Cluster documents (multi-tenant job mixes) run on the
    // ClusterSimulator and yield the cluster-aggregate report; plain
    // documents stay one Simulator = one workload.
    if (cluster::isClusterDoc(doc))
        return cluster::runClusterDoc(doc);
    MaterializedConfig mat = materializeConfig(doc);
    Simulator sim(std::move(mat.topo), std::move(mat.cfg));
    return sim.run(mat.workload);
}

BatchOutcome
runBatch(const SweepSpec &spec, const BatchOptions &opts)
{
    size_t n = spec.configCount();
    BatchOutcome out;
    out.results.resize(n);

    int threads = opts.threads;
    if (threads <= 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    // Never spin up more workers than configurations.
    threads = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(threads), std::max<size_t>(n, 1)));
    out.threadsUsed = threads;

    auto host_start = std::chrono::steady_clock::now();

    // Batch heartbeats (created only when asked for; results are
    // untouched either way).
    std::unique_ptr<SweepPulse> pulse;
    if (opts.telemetry.heartbeatsEnabled())
        pulse = std::make_unique<SweepPulse>(opts.telemetry, n, threads);
    // Rows are whole simulations, so workers claim them one at a time
    // from a shared index; each result lands in its configuration's
    // slot, whichever worker ran it. A row's own errors fail only that
    // row (runOne). What else escapes, a row manifest that cannot be
    // written, is raised after the batch: thrown on a worker it would
    // terminate the process.
    std::atomic<size_t> next{0};
    std::mutex failure_mutex;
    std::exception_ptr failure;
    auto worker = [&](int id) {
        for (size_t index; (index = next.fetch_add(1)) < n;) {
            if (pulse)
                pulse->markBusy(id, true);
            try {
                runOne(spec, index, opts, out.results[index]);
            } catch (...) {
                std::lock_guard<std::mutex> lock(failure_mutex);
                if (!failure)
                    failure = std::current_exception();
            }
            if (pulse) {
                pulse->markBusy(id, false);
                pulse->rowDone(out.results[index].fromCache,
                               out.results[index].failed);
            }
        }
    };
    if (threads == 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<size_t>(threads));
        for (int w = 0; w < threads; ++w)
            pool.emplace_back(worker, w);
        for (std::thread &t : pool)
            t.join();
    }

    if (pulse)
        pulse->stop();
    if (failure)
        std::rethrow_exception(failure);

    auto host_end = std::chrono::steady_clock::now();
    out.wallSeconds =
        std::chrono::duration<double>(host_end - host_start).count();

    for (const SweepResult &r : out.results) {
        if (r.fromCache)
            ++out.cacheHits;
        if (r.failed)
            ++out.failures;
    }

    return out;
}

} // namespace sweep
} // namespace astra
