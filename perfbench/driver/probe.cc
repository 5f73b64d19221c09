#include "probe.h"

#include <chrono>
#include <filesystem>
#include <memory>
#include <utility>

#include "collective/engine.h"
#include "common/logging.h"
#include "event/event_queue.h"
#include "memory/memory_model.h"
#include "network/flow/flow_network.h"
#include "system/sys.h"
#include "trace/tracer.h"
#include "workload/engine.h"

namespace perfbench {

using namespace astra;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

double
secondsSince(int64_t start_ns)
{
    return double(nowNs() - start_ns) * 1e-9;
}

} // namespace

ProbeNetwork::ProbeNetwork(NetworkApi &backend, LayerClock &clock)
    : NetworkApi(backend.eventQueue(), backend.topology()),
      backend_(backend), clock_(clock)
{
}

EventCallback
ProbeNetwork::wrap(EventCallback cb, Layer layer)
{
    // A null handler must stay null: backends may skip work for it.
    if (!cb)
        return cb;
    return [clock = &clock_, layer, inner = std::move(cb)]() mutable {
        clock->enter();
        inner();
        clock->exit(layer);
    };
}

void
ProbeNetwork::simSend(NpuId src, NpuId dst, Bytes bytes, int dim,
                      uint64_t tag, SendHandlers handlers)
{
    ++sends_;
    Layer handler_layer = tag == kNoTag ? kCollHandler : kP2pHandler;
    SendHandlers wrapped;
    wrapped.onInjected = wrap(std::move(handlers.onInjected), handler_layer);
    wrapped.onDelivered =
        wrap(std::move(handlers.onDelivered), handler_layer);
    clock_.enter();
    backend_.simSend(src, dst, bytes, dim, tag, std::move(wrapped));
    clock_.exit(kSend);
}

void
ProbeNetwork::simRecv(NpuId dst, NpuId src, uint64_t tag, EventCallback cb)
{
    ++recvs_;
    clock_.enter();
    backend_.simRecv(dst, src, tag, wrap(std::move(cb), kP2pHandler));
    clock_.exit(kSend);
}

StackRun
runStack(const sweep::MaterializedConfig &mat, const StackOptions &opt)
{
    const Topology &topo = mat.topo;
    const SimulatorConfig &cfg = mat.cfg;
    const Workload &wl = mat.workload;
    StackRun out;

    // Construction mirrors the Simulator constructor.
    int64_t t0 = nowNs();
    EventQueue eq;
    std::unique_ptr<NetworkApi> backend = makeNetwork(cfg.backend, eq, topo);
    LayerClock clock;
    std::unique_ptr<ProbeNetwork> probe;
    NetworkApi *front = backend.get();
    if (opt.probe) {
        probe = std::make_unique<ProbeNetwork>(*backend, clock);
        front = probe.get();
    }
    CollectiveEngine coll(*front);
    std::unique_ptr<MemoryModel> mem;
    if (cfg.pooledMem)
        mem = std::make_unique<MemoryModel>(cfg.localMem, *cfg.pooledMem);
    else if (cfg.zeroInfinityMem)
        mem = std::make_unique<MemoryModel>(cfg.localMem,
                                            *cfg.zeroInfinityMem);
    else
        mem = std::make_unique<MemoryModel>(cfg.localMem);
    std::vector<std::unique_ptr<Sys>> sys;
    sys.reserve(static_cast<size_t>(topo.npus()));
    for (NpuId n = 0; n < topo.npus(); ++n)
        sys.push_back(std::make_unique<Sys>(n, cfg.sys, coll, *mem));
    out.constructS = secondsSince(t0);

    validateWorkload(wl, topo.npus());
    int64_t t1 = nowNs();
    ExecutionEngine engine(sys, wl);
    out.engineBuildS = secondsSince(t1);

    std::unique_ptr<trace::Tracer> tracer;
    if (opt.tracer && cfg.trace.enabled()) {
        trace::TraceConfig tcfg = cfg.trace;
        tcfg.file = opt.traceFile;
        tracer = std::make_unique<trace::Tracer>(tcfg);
        tracer->processName(0, "sim " + wl.name);
        for (NpuId n = 0; n < topo.npus(); ++n)
            tracer->threadName(0, n, detail::formatV("rank %d", n));
        tracer->threadName(0, trace::Tracer::kLifecycleTid, "lifecycle");
        backend->setTracer(tracer.get());
        coll.setTracer(tracer.get(), 0);
        engine.setTracer(tracer.get(), 0);
    }
    QueueProfile profile; // timeCallbacks stays off.
    if (opt.probe)
        eq.setProfile(&profile);

    engine.start();
    int64_t t2 = nowNs();
    eq.run();
    out.runS = secondsSince(t2);
    eq.setProfile(nullptr);
    ASTRA_USER_CHECK(engine.finished(),
                     "workload '%s' deadlocked: %zu of %zu nodes completed",
                     wl.name.c_str(), engine.completedNodes(),
                     engine.totalNodes());

    out.sim.totalTimeNs = eq.now();
    out.sim.events = eq.executedEvents();
    out.sim.messages = backend->stats().messages;

    if (tracer) {
        out.traceEvents = tracer->eventCount();
        int64_t t3 = nowNs();
        tracer->writeOutputs();
        out.exportS = secondsSince(t3);
        if (!opt.traceFile.empty()) {
            out.traceFileBytes = std::filesystem::file_size(opt.traceFile);
            std::filesystem::remove(opt.traceFile);
        }
    }

    if (probe) {
        out.sendS = clock.seconds(kSend);
        out.collHandlerS = clock.seconds(kCollHandler);
        out.p2pHandlerS = clock.seconds(kP2pHandler);
        out.sends = probe->sends();
        out.recvs = probe->recvs();
        out.bucketActivations = profile.bucketActivations;
        out.depthHist = profile.depthHist;
    }
    for (double b : backend->stats().bytesPerDim)
        out.networkBytes += b;
    out.networkFootprint = backend->bytesInUse();
    if (auto *flow = dynamic_cast<FlowNetwork *>(backend.get())) {
        out.flowSolves = flow->solveCount();
        trace::Counters counters;
        flow->fillTraceCounters(counters);
        out.flowsTouched =
            uint64_t(counters.values["solver_flows_touched"]);
    }
    out.collInstances = coll.completedInstances();
    out.collFootprint = coll.bytesInUse();
    out.nodes = engine.totalNodes();
    return out;
}

} // namespace perfbench
