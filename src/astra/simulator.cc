#include "astra/simulator.h"

#include <chrono>

#include "common/logging.h"
#include "workload/engine.h"

namespace astra {

std::unique_ptr<MemoryModel>
makeMemory(const SimulatorConfig &cfg)
{
    ASTRA_USER_CHECK(!(cfg.pooledMem && cfg.zeroInfinityMem),
                     "configure at most one remote memory tier");
    if (cfg.pooledMem)
        return std::make_unique<MemoryModel>(cfg.localMem,
                                             *cfg.pooledMem);
    if (cfg.zeroInfinityMem)
        return std::make_unique<MemoryModel>(cfg.localMem,
                                             *cfg.zeroInfinityMem);
    return std::make_unique<MemoryModel>(cfg.localMem);
}

// The harness takes the RunConfig base by move; the system and memory
// fields read below are not part of it.
Simulator::Simulator(Topology topo, SimulatorConfig cfg)
    : harness_(std::move(topo), std::move(cfg)),
      coll_(std::make_unique<CollectiveEngine>(harness_.network())),
      mem_(makeMemory(cfg))
{
    int npus = topology().npus();
    sys_.reserve(static_cast<size_t>(npus));
    for (NpuId n = 0; n < npus; ++n)
        sys_.push_back(std::make_unique<Sys>(n, cfg.sys, *coll_, *mem_));
}

Report
Simulator::run(const Workload &wl)
{
    ASTRA_USER_CHECK(!ran_, "a Simulator instance runs one workload; "
                            "create a fresh instance per run");
    ran_ = true;
    int npus = topology().npus();
    validateWorkload(wl, npus);
    EventQueue &eq = eventQueue();

    auto host_start = std::chrono::steady_clock::now();
    ExecutionEngine engine(sys_, wl);
    if (trace::Tracer *tracer = harness_.startTracing("sim " + wl.name)) {
        for (NpuId n = 0; n < npus; ++n)
            tracer->threadName(0, n, detail::formatV("rank %d", n));
        coll_->setTracer(tracer, 0);
        engine.setTracer(tracer, 0);
    }
    // The engine reference is only sampled while run() executes
    // (stopHeartbeats below detaches the monitor).
    harness_.observe(
        {[&engine] {
             return telemetry::Progress{engine.completedNodes(),
                                        engine.totalNodes()};
         },
         [this] { return coll_->bytesInUse(); },
         {}});
    // With faults active, the queue can outlive the workload (a fault
    // timeline's tail event may fire after the last node), so the
    // finish time is captured at the last completion rather than read
    // from the drained queue. Fault-free runs keep the original path —
    // setOnFinished is synchronous and schedules nothing, so the event
    // stream is bit-identical.
    TimeNs finish_at = 0.0;
    engine.setOnFinished([&eq, &finish_at] { finish_at = eq.now(); });
    fault::FaultHooks hooks;
    hooks.computeScale = [this](NpuId n, double s) {
        sys_[static_cast<size_t>(n)]->setComputeScale(s);
    };
    hooks.active = [&engine] { return !engine.finished(); };
    harness_.startFaults(std::move(hooks));
    engine.run();
    TimeNs finish = harness_.faulted() ? finish_at : eq.now();
    harness_.stopHeartbeats();
    auto host_end = std::chrono::steady_clock::now();

    Report report;
    report.workload = wl.name;
    report.totalTime = finish;
    report.perNpu.reserve(sys_.size());
    for (auto &sys : sys_) {
        sys->tracker().finish(finish);
        report.perNpu.push_back(breakdownOf(sys->tracker()));
        report.average += report.perNpu.back();
    }
    report.average = report.average.scaled(1.0 / double(sys_.size()));
    report.wallSeconds =
        std::chrono::duration<double>(host_end - host_start).count();
    harness_.finishReport(report, /*analysis_pid=*/0);
    harness_.writeManifest("simulator", report);
    return report;
}

} // namespace astra
