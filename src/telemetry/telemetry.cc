#include "telemetry/telemetry.h"

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstring>

#include "astra/report.h"
#include "common/cli.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "topology/topology.h"

namespace astra {
namespace telemetry {

TelemetryConfig
telemetryConfigFromJson(const json::Value &doc, const std::string &path)
{
    json::checkKeys(doc, path,
                    {"file", "interval_ms", "interval_events", "manifest"});
    TelemetryConfig cfg;
    cfg.file = doc.getString("file", "");
    cfg.intervalMs = doc.getNumber("interval_ms", 0.0);
    ASTRA_USER_CHECK(std::isfinite(cfg.intervalMs) && cfg.intervalMs >= 0.0,
                     "%s.interval_ms: must be a finite number >= 0",
                     path.c_str());
    double events = doc.getNumber("interval_events", 0.0);
    ASTRA_USER_CHECK(events >= 0.0 && events < 0x1p63 &&
                         events == std::floor(events),
                     "%s.interval_events: must be a whole number >= 0, "
                     "got %g",
                     path.c_str(), events);
    cfg.intervalEvents = static_cast<uint64_t>(events);
    if (!cfg.file.empty() && cfg.intervalMs == 0.0 &&
        cfg.intervalEvents == 0)
        cfg.intervalEvents = kDefaultIntervalEvents;
    cfg.manifest = doc.getString("manifest", "");
    return cfg;
}

FlagGroup
cliFlags()
{
    return {{"heartbeat", FlagKind::Value, "stream NDJSON heartbeats", "file"},
            {"heartbeat-interval-ms", FlagKind::Number, "wall-clock cadence",
             "interval_ms"},
            {"heartbeat-events", FlagKind::Number, "event-count cadence",
             "interval_events"},
            {"manifest", FlagKind::Value, "write a run manifest", "manifest"}};
}

TelemetryConfig
telemetryConfigFromCli(const CommandLine &cl, json::Value base)
{
    cl.writeKeys(cliFlags(), base);
    return telemetryConfigFromJson(base, "telemetry");
}

double
wallNow()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

size_t
peakRssBytes()
{
#ifdef __linux__
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    char line[256];
    size_t kb = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            std::sscanf(line + 6, "%zu", &kb);
            break;
        }
    }
    std::fclose(f);
    return kb * 1024;
#else
    return 0;
#endif
}

Monitor::Monitor(const TelemetryConfig &cfg) : cfg_(cfg)
{
    if (!cfg_.file.empty())
        out_.emplace(cfg_.file, "heartbeat file");
    startWall_ = wallNow();
    lastEmitWall_ = startWall_;
}

void
Monitor::addFootprint(std::string name, std::function<size_t()> bytes)
{
    sources_.push_back(FootprintSource{std::move(name), std::move(bytes)});
}

uint64_t
Monitor::initialCountdown() const
{
    return cfg_.intervalEvents > 0 ? cfg_.intervalEvents
                                   : kWallProbeEvents;
}

size_t
Monitor::sampleFootprint(
    std::vector<std::pair<std::string, size_t>> *by_source) const
{
    size_t total = 0;
    for (const FootprintSource &s : sources_) {
        size_t b = s.bytes ? s.bytes() : 0;
        total += b;
        if (by_source != nullptr)
            by_source->emplace_back(s.name, b);
    }
    return total;
}

uint64_t
Monitor::poll(TimeNs now, uint64_t executed, size_t pending)
{
    if (cfg_.intervalEvents > 0) {
        // Event cadence: every poll is a beat (deterministic).
        emit(now, executed, pending);
        return cfg_.intervalEvents;
    }
    // Wall cadence: the countdown only bounds how often the clock is
    // probed; a beat fires once the interval elapsed.
    double w = wallNow();
    if ((w - lastEmitWall_) * 1000.0 >= cfg_.intervalMs)
        emit(now, executed, pending);
    return kWallProbeEvents;
}

void
Monitor::emit(TimeNs now, uint64_t executed, size_t pending)
{
    HeartbeatRecord r;
    r.seq = records_.size();
    r.simTimeNs = now;
    r.events = executed;
    r.queueDepth = pending;
    if (progress_) {
        Progress p = progress_();
        r.nodesDone = p.done;
        r.nodesTotal = p.total;
        if (p.total > 0)
            r.progress = double(p.done) / double(p.total);
    }
    // Deterministic ETA: with fraction p done at sim time t, the
    // remaining sim time extrapolates to t * (1 - p) / p. Exact when
    // progress is uniform in sim time (a serial chain), an estimate
    // otherwise.
    if (r.progress > 0.0)
        r.etaSimNs = r.simTimeNs * (1.0 - r.progress) / r.progress;
    if (active_)
        r.active = active_();
    if (solves_) {
        r.solverSolves = solves_();
        r.solverSolvesDelta = r.solverSolves - lastSolves_;
        lastSolves_ = r.solverSolves;
    }
    r.footprintBytes = sampleFootprint(&r.footprint);
    if (jobs_)
        r.jobs = jobs_();

    double w = wallNow();
    r.wallSeconds = w - startWall_;
    if (r.wallSeconds > 0.0) {
        r.wallSimNsPerSec = r.simTimeNs / r.wallSeconds;
        r.wallEventsPerSec = double(r.events) / r.wallSeconds;
    }
    if (r.progress > 0.0 && r.progress < 1.0)
        r.wallEtaSeconds =
            r.wallSeconds * (1.0 - r.progress) / r.progress;
    lastEmitWall_ = w;

    if (out_)
        writeLine(r);
    records_.push_back(std::move(r));
}

void
Monitor::writeLine(const HeartbeatRecord &r)
{
    // One compact JSON object per line (NDJSON). Built through
    // json::Value so string escaping and number formatting match the
    // rest of the toolchain; heartbeats are rare, so the allocation
    // cost is irrelevant.
    json::Object o;
    o["seq"] = json::Value(r.seq);
    o["sim_time_ns"] = json::Value(r.simTimeNs);
    o["events"] = json::Value(r.events);
    o["queue_depth"] = json::Value(uint64_t(r.queueDepth));
    o["nodes_done"] = json::Value(uint64_t(r.nodesDone));
    o["nodes_total"] = json::Value(uint64_t(r.nodesTotal));
    o["progress"] = json::Value(r.progress);
    o["eta_sim_ns"] = json::Value(r.etaSimNs);
    o["active"] = json::Value(uint64_t(r.active));
    o["solver_solves"] = json::Value(r.solverSolves);
    o["solver_solves_delta"] = json::Value(r.solverSolvesDelta);
    o["footprint_bytes"] = json::Value(uint64_t(r.footprintBytes));
    if (!r.footprint.empty()) {
        json::Object fp;
        for (const auto &[name, bytes] : r.footprint)
            fp[name] = json::Value(uint64_t(bytes));
        o["footprint"] = json::Value(std::move(fp));
    }
    if (!r.jobs.empty()) {
        json::Array jobs;
        for (const JobProgress &j : r.jobs) {
            json::Object jo;
            jo["name"] = json::Value(j.name);
            jo["done"] = json::Value(uint64_t(j.done));
            jo["total"] = json::Value(uint64_t(j.total));
            jobs.push_back(json::Value(std::move(jo)));
        }
        o["jobs"] = json::Value(std::move(jobs));
    }
    o["wall_seconds"] = json::Value(r.wallSeconds);
    o["wall_sim_ns_per_s"] = json::Value(r.wallSimNsPerSec);
    o["wall_events_per_s"] = json::Value(r.wallEventsPerSec);
    o["wall_eta_seconds"] = json::Value(r.wallEtaSeconds);
    out_->put(json::Value(std::move(o)).dump());
    out_->put("\n");
    // Flushed per record, so the stream shows live progress.
    out_->flush();
}

void
Monitor::finish(TimeNs now, uint64_t executed, size_t pending)
{
    if (finished_)
        return;
    finished_ = true;
    emit(now, executed, pending);
    if (out_) {
        out_->close();
        out_.reset();
    }
}

std::string
topologyNotation(const Topology &topo)
{
    std::string out;
    for (int d = 0; d < topo.numDims(); ++d) {
        const Dimension &dim = topo.dim(d);
        if (d > 0)
            out += '_';
        out += detail::formatV("%s(%d,%g,%g)", blockLongName(dim.type),
                               dim.size, dim.bandwidth, dim.latency);
    }
    return out;
}

json::Value
manifestToJson(const ManifestInfo &info, const Report &report)
{
    json::Object doc;
    doc["kind"] = json::Value("astra-run-manifest");
    doc["run_kind"] = json::Value(info.kind);
    doc["manifest_schema_version"] = json::Value(kManifestSchemaVersion);
    doc["spec_schema_version"] = json::Value(sweep::kSpecSchemaVersion);
    doc["cache_fingerprint"] = json::Value(sweep::cacheFingerprint());
    // Hashes are 64-bit: serialized as the canonical 16-hex-digit
    // string (a JSON number would round through a double).
    doc["config_hash"] = json::Value(
        info.configHash != 0 ? sweep::configHashString(info.configHash)
                             : std::string());
    doc["backend"] = json::Value(info.backend);
    doc["topology"] = json::Value(info.topology);
    doc["npus"] = json::Value(info.npus);
    doc["seed"] = json::Value(info.seed);
    if (info.fromCache)
        doc["from_cache"] = json::Value(true);
    doc["peak_footprint_bytes"] =
        json::Value(uint64_t(report.peakFootprintBytes));
    if (!report.footprintBySubsystem.empty()) {
        json::Object fp;
        for (const auto &[name, bytes] : report.footprintBySubsystem)
            fp[name] = json::Value(uint64_t(bytes));
        doc["footprint"] = json::Value(std::move(fp));
    }
    doc["bytes_per_flow"] = json::Value(report.bytesPerFlow);
    doc["bytes_per_npu"] = json::Value(report.bytesPerNpu);
    doc["heartbeats"] = json::Value(report.telemetryHeartbeats);
    doc["peak_rss_bytes"] = json::Value(uint64_t(report.peakRssBytes));
    doc["wall_seconds"] = json::Value(report.wallSeconds);
    if (!info.wallBreakdown.empty()) {
        json::Object wall;
        for (const auto &[name, seconds] : info.wallBreakdown)
            wall[name] = json::Value(seconds);
        doc["wall"] = json::Value(std::move(wall));
    }
    json::Array outputs;
    for (const std::string &path : info.outputs)
        outputs.push_back(json::Value(path));
    doc["outputs"] = json::Value(std::move(outputs));
    return json::Value(std::move(doc));
}

void
writeManifest(const std::string &path, const ManifestInfo &info,
              const Report &report)
{
    OutputFile::write(path, "run manifest",
                      manifestToJson(info, report).dump(2) + "\n");
    debugT("telemetry", "wrote run manifest %s", path.c_str());
}

} // namespace telemetry
} // namespace astra
