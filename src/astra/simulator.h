/**
 * @file
 * Top-level simulator facade wiring the full ASTRA-sim 2.0 stack
 * (Fig. 1(c)): topology + network backend + collective engine +
 * memory model + per-NPU system layers + the graph-based execution
 * engine. One Simulator instance runs one workload and produces a
 * Report with the end-to-end time and the five-way runtime breakdown
 * used throughout the paper's evaluation.
 */
#ifndef ASTRA_ASTRA_SIMULATOR_H_
#define ASTRA_ASTRA_SIMULATOR_H_

#include <memory>
#include <optional>
#include <vector>

#include "astra/report.h"
#include "astra/run_harness.h"
#include "collective/engine.h"
#include "memory/memory_model.h"
#include "system/sys.h"
#include "workload/et.h"

namespace astra {

/** Full-stack configuration for a simulation: the run-level fabric
 *  and services (RunConfig) plus the per-NPU system and memory. */
struct SimulatorConfig : RunConfig
{
    SysConfig sys;
    LocalMemoryConfig localMem;
    /** At most one remote tier may be set. */
    std::optional<RemoteMemoryConfig> pooledMem;
    std::optional<ZeroInfinityConfig> zeroInfinityMem;
};

/** The memory model `cfg` describes (local tier plus at most one
 *  remote tier). */
std::unique_ptr<MemoryModel> makeMemory(const SimulatorConfig &cfg);

/** See file comment. */
class Simulator
{
  public:
    Simulator(Topology topo, SimulatorConfig cfg = {});

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Validate and execute `wl` to completion; callable once per
     * Simulator instance.
     */
    Report run(const Workload &wl);

    const Topology &topology() const { return harness_.topology(); }
    EventQueue &eventQueue() { return harness_.eventQueue(); }
    NetworkApi &network() { return harness_.network(); }

    /** The run's tracer (null unless cfg.trace enabled it); exposed
     *  so tests can inspect the recorded timeline in memory. */
    trace::Tracer *tracer() { return harness_.tracer(); }

    /** The run's heartbeat monitor (null unless cfg.telemetry enabled
     *  heartbeats); exposed so tests can inspect the in-memory
     *  records. Valid after run() returns. */
    telemetry::Monitor *monitor() { return harness_.monitor(); }

  private:
    RunHarness harness_;
    std::unique_ptr<CollectiveEngine> coll_;
    std::unique_ptr<MemoryModel> mem_;
    std::vector<std::unique_ptr<Sys>> sys_;
    bool ran_ = false;
};

} // namespace astra

#endif // ASTRA_ASTRA_SIMULATOR_H_
