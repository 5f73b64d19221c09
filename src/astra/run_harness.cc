#include "astra/run_harness.h"

#include <chrono>

#include "common/json.h"
#include "network/flow/flow_network.h"
#include "trace/analysis/analysis.h"

namespace astra {

RunHarness::RunHarness(Topology topo, RunConfig cfg)
    : topo_(std::move(topo)), cfg_(std::move(cfg)),
      net_(makeNetwork(cfg_.backend, eq_, topo_))
{
}

trace::Tracer *
RunHarness::startTracing(const std::string &process)
{
    if (!cfg_.trace.enabled())
        return nullptr;
    tracer_ = std::make_unique<trace::Tracer>(cfg_.trace);
    tracer_->processName(0, process);
    tracer_->threadName(0, trace::Tracer::kLifecycleTid, "lifecycle");
    net_->setTracer(tracer_.get());
    // Self-profiling piggybacks on the tracer: queue-depth and
    // bucket-occupancy histograms always, per-callback wall sampling
    // only at full detail (it is the costlier probe).
    profile_.timeCallbacks = tracer_->full();
    eq_.setProfile(&profile_);
    return tracer_.get();
}

void
RunHarness::observe(RunProbes probes)
{
    probes_ = std::move(probes);
    if (!cfg_.telemetry.heartbeatsEnabled())
        return;
    // Heartbeat monitor (docs/observability.md): attached to the event
    // queue, purely observational; stopHeartbeats() detaches it.
    monitor_ = std::make_unique<telemetry::Monitor>(cfg_.telemetry);
    monitor_->setProgress(probes_.progress);
    monitor_->setJobs(probes_.jobs);
    monitor_->setActive([this] { return net_->activeCount(); });
    if (auto *flow = dynamic_cast<FlowNetwork *>(net_.get()))
        monitor_->setSolves([flow] { return flow->solveCount(); });
    monitor_->addFootprint("event_queue",
                           [this] { return eq_.bytesInUse(); });
    monitor_->addFootprint("network",
                           [this] { return net_->bytesInUse(); });
    monitor_->addFootprint("collectives", probes_.collectiveBytes);
    if (tracer_)
        monitor_->addFootprint("tracer",
                               [this] { return tracer_->bytesInUse(); });
    eq_.setMonitor(monitor_.get());
}

void
RunHarness::startFaults(fault::FaultHooks hooks)
{
    if (!faulted())
        return;
    hooks.net = net_.get();
    injector_ = std::make_unique<fault::FaultInjector>(
        eq_, topo_, *cfg_.fault, std::move(hooks));
    if (tracer_)
        injector_->setTracer(tracer_.get(), 0);
    injector_->start();
}

void
RunHarness::stopHeartbeats()
{
    if (!monitor_)
        return;
    monitor_->finish(eq_.now(), eq_.executedEvents(), eq_.pending());
    eq_.setMonitor(nullptr);
}

namespace {

/** In-memory analytics over the tracer's event blocks (no JSON round
 *  trip); fills the report's analysis fields and the optional file. */
void
analyzeInto(Report &report, trace::Tracer &tracer,
            const trace::TraceConfig &cfg, int32_t pid)
{
    namespace an = trace::analysis;
    an::AnalysisOptions opts;
    opts.pid = pid;
    an::AnalysisResult analysis =
        an::analyzeTrace(an::TraceData::fromTracer(tracer), opts);
    report.criticalPathNs = analysis.path.lengthNs;
    for (const an::DimCommRow &row : analysis.dims) {
        if (row.dim < 0)
            continue;
        if (report.traceExposedCommPerDim.size() <= size_t(row.dim))
            report.traceExposedCommPerDim.resize(size_t(row.dim) + 1, 0.0);
        report.traceExposedCommPerDim[size_t(row.dim)] = row.exposedNs;
    }
    if (!analysis.links.empty()) {
        report.bottleneckLink = analysis.links.front().link;
        report.bottleneckLinkShare = analysis.links.front().share;
    }
    if (!cfg.analysisFile.empty())
        json::writeFile(cfg.analysisFile, an::analysisToJson(analysis));
}

} // namespace

void
RunHarness::finishReport(Report &report, int32_t analysis_pid)
{
    const NetworkStats &stats = net_->stats();
    report.events = eq_.executedEvents();
    report.messages = stats.messages;
    report.bytesPerDim = stats.bytesPerDim;
    report.busyTimePerDim = stats.busyTimePerDim;
    report.linksPerDim = stats.linksPerDim;
    report.maxLinkBusyNs = stats.maxLinkBusyNs;
    report.numFaults = injector_ ? injector_->firedCount() : 0;
    if (tracer_) {
        eq_.setProfile(nullptr);
        trace::Counters &c = tracer_->counters();
        c.add("trace_events", double(tracer_->eventCount()));
        trace::addQueueProfile(profile_, c);
        net_->fillTraceCounters(c);
        if (cfg_.trace.analysis) {
            // Purely observational: the simulated results are final.
            // Runs before writeOutputs so flushed occupancy spans land
            // in the export too.
            auto start = std::chrono::steady_clock::now();
            analyzeInto(report, *tracer_, cfg_.trace, analysis_pid);
            c.addWall("wall_analysis_seconds",
                      std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
        }
        // writeOutputs books its own wall_trace_write_seconds.
        tracer_->writeOutputs();
        report.traceCounters = c.values;
        report.traceHistograms = c.histograms;
        report.traceWallSeconds = c.wallSeconds;
    }
    // Footprint rollup (telemetry protocol, docs/observability.md):
    // always measured — one deterministic capacity-based pass at run
    // end, when pool high-water marks are final. Peak RSS is host
    // state (never serialized).
    auto &fp = report.footprintBySubsystem;
    fp.emplace_back("event_queue", eq_.bytesInUse());
    fp.emplace_back("network", net_->bytesInUse());
    fp.emplace_back("collectives", probes_.collectiveBytes());
    if (tracer_)
        fp.emplace_back("tracer", tracer_->bytesInUse());
    for (const auto &[name, bytes] : fp) {
        (void)name;
        report.peakFootprintBytes += bytes;
    }
    size_t flow_slots = net_->flowSlots();
    if (flow_slots > 0)
        report.bytesPerFlow =
            double(net_->bytesInUse()) / double(flow_slots);
    report.bytesPerNpu =
        double(report.peakFootprintBytes) / double(topo_.npus());
    // The beat count is only serialized under a deterministic (pure
    // event-count) cadence; see Report::telemetryHeartbeats.
    if (monitor_ && monitor_->deterministicCadence())
        report.telemetryHeartbeats = monitor_->heartbeatCount();
    report.peakRssBytes = telemetry::peakRssBytes();
}

void
RunHarness::writeManifest(const char *kind, const Report &report) const
{
    if (cfg_.telemetry.manifest.empty())
        return;
    telemetry::ManifestInfo info;
    info.kind = kind;
    info.configHash = cfg_.telemetry.configHash;
    info.backend = backendName(cfg_.backend);
    info.topology = telemetry::topologyNotation(topo_);
    info.npus = topo_.npus();
    info.seed = cfg_.fault ? cfg_.fault->seed : 0;
    telemetry::fillManifestFromReport(info, report);
    info.wallBreakdown.emplace_back("run", report.wallSeconds);
    for (const std::string *out :
         {&cfg_.telemetry.file, &cfg_.trace.file,
          &cfg_.trace.utilizationFile, &cfg_.trace.analysisFile})
        if (!out->empty())
            info.outputs.push_back(*out);
    telemetry::writeManifest(cfg_.telemetry.manifest, info);
}

} // namespace astra
