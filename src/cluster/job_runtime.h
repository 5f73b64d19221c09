/**
 * @file
 * ClusterSimulator's per-job state, shared by the cluster's
 * translation units (cluster.cc: admission and execution;
 * resilience.cc: faults, checkpoints and restarts). Internal to
 * src/cluster/.
 */
#ifndef ASTRA_CLUSTER_JOB_RUNTIME_H_
#define ASTRA_CLUSTER_JOB_RUNTIME_H_

#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"

namespace astra {
namespace cluster {

/**
 * The per-job execution stack: rank-translation view, collective
 * engine, memory model, per-NPU system layers, execution engine.
 * Built by ClusterSimulator::buildStack for both the co-executed run
 * (on the shared fabric) and the isolated baseline (on a fresh one).
 */
struct ClusterSimulator::JobStack
{
    /** By-value placement copy: each incarnation's rank view
     *  references its own stack's placement, so ghost traffic of an
     *  abandoned incarnation stays correctly addressed even after
     *  the job is re-placed elsewhere (requeue restart). */
    JobPlacement placement;
    std::unique_ptr<RankViewNetwork> view;
    std::unique_ptr<CollectiveEngine> coll;
    std::unique_ptr<MemoryModel> mem;
    std::vector<std::unique_ptr<Sys>> sys;
    std::unique_ptr<ExecutionEngine> engine;
};

/**
 * One job's full runtime state. Heap-allocated (stable addresses: the
 * network view borrows the job topology, the collective engine
 * borrows the view, the system layers borrow both) and kept alive
 * until the ClusterSimulator dies — trailing fabric events may still
 * reference a finished job's callbacks.
 */
struct ClusterSimulator::JobRuntime
{
    int id = -1;
    JobSpec spec;
    Topology jobTopo;
    Workload wl;

    std::optional<JobPlacement> placement;
    std::unique_ptr<JobStack> stack;
    /**
     * Stacks of abandoned incarnations (NPU failures). Kept alive
     * until the ClusterSimulator dies: their ghost flows/messages
     * still reference the cancelled engine's callbacks and the
     * view's busy accumulators. unique_ptr (not by-value moves)
     * keeps every borrowed address stable.
     */
    std::vector<std::unique_ptr<JobStack>> graveyard;

    bool done = false;
    bool running = false;
    TimeNs admitted = 0.0;
    TimeNs finished = 0.0;
    TimeNs isolated = 0.0;

    // Failure-resilience state (docs/fault.md).
    fault::CheckpointPolicy ckpt;
    int incarnation = 0;          //!< bumped on every NPU failure.
    int restarts = 0;             //!< incarnations actually launched.
    uint64_t faults = 0;          //!< NPU failures that hit this job.
    std::vector<uint8_t> snapshot; //!< last checkpoint (done flags).
    TimeNs lastSnapshot = 0.0;    //!< checkpoint time (or launch).
    TimeNs incarnationStart = 0.0; //!< launch time of this incarnation.
    TimeNs lostWork = 0.0;        //!< rolled-back simulated time.
    TimeNs recovery = 0.0;        //!< failure-to-restart gaps.
    TimeNs failedAt = 0.0;        //!< time of the last failure.
    bool waitingRecovery = false; //!< restart-in-place pending.
    bool failed = false;          //!< permanent failure (see error).
    std::string error;
    /** Open lifecycle span of the running incarnation
     *  (Tracer::kNoSpan when tracing is off or not running). */
    uint32_t traceSpan = trace::Tracer::kNoSpan;

    // Fabric snapshots bracketing the residency (per-job report).
    uint64_t eventsAtAdmit = 0;
    uint64_t eventsAtFinish = 0;
    std::vector<double> busyAtAdmit;
    std::vector<double> busyAtFinish;
    double maxLinkAtFinish = 0.0;

    /** Nodes done in the last checkpoint snapshot. */
    size_t snapshotWatermark() const
    {
        return std::accumulate(snapshot.begin(), snapshot.end(),
                               size_t{0});
    }

    JobRuntime(JobSpec s, Topology jt, Workload w)
        : spec(std::move(s)), jobTopo(std::move(jt)), wl(std::move(w))
    {
    }
};

} // namespace cluster
} // namespace astra

#endif // ASTRA_CLUSTER_JOB_RUNTIME_H_
