/**
 * @file
 * The graph-based execution engine (paper §IV-A, Fig. 1(b)).
 *
 * Each NPU runs an independent engine instance over its ET graph: a
 * node becomes ready when all its parents completed, ready nodes are
 * issued to the NPU's system layer, and completions release children.
 * Because every NPU consumes its own graph, different NPUs can run
 * different operations at the same time — the property that enables
 * pipeline parallelism and other arbitrary strategies. The engine
 * finishes when every node of every graph has been consumed.
 *
 * Ready-node state is arena-allocated: the indegree counters and the
 * children adjacency of *all* graphs live in three flat arrays (a
 * CSR layout indexed by a per-NPU node base), so the completion path
 * — decrement indegrees, walk a child span — is cache-linear instead
 * of chasing one heap allocation per node's child list. The ET holds
 * parent positions (workload/et.h), so the constructor builds the
 * child CSR by counting, with no id lookup; the arena is an engine
 * implementation detail rebuilt per run.
 */
#ifndef ASTRA_WORKLOAD_ENGINE_H_
#define ASTRA_WORKLOAD_ENGINE_H_

#include <array>
#include <memory>
#include <vector>

#include "system/sys.h"
#include "workload/et.h"

namespace astra {

namespace trace { class Tracer; }

/** See file comment. */
class ExecutionEngine
{
  public:
    /**
     * @param sys  one system layer per NPU (indexed by NPU id);
     *             borrowed, must outlive the engine.
     * @param wl   validated workload (one graph per NPU); borrowed.
     * @param initial_done  optional completion snapshot (one flag per
     *             flat node index, from snapshotDone() of a previous
     *             engine over the same workload): those nodes are
     *             marked complete up front and never re-issued —
     *             checkpoint-restart resumes from here. The snapshot
     *             must be dependency-closed (every parent of a done
     *             node is done), which snapshotDone() guarantees.
     */
    ExecutionEngine(std::vector<std::unique_ptr<Sys>> &sys,
                    const Workload &wl,
                    const std::vector<uint8_t> *initial_done = nullptr);

    /** Seed all dependency-free nodes into the system layers. */
    void start();

    /**
     * Stop consuming completions: every subsequent node completion is
     * ignored (no children issued, no progress counted). Used on NPU
     * failure — in-flight events of the abandoned incarnation still
     * fire harmlessly against the cancelled engine. Irreversible.
     */
    void cancel() { cancelled_ = true; }
    bool cancelled() const { return cancelled_; }

    /** Per-node completion flags (flat arena index); a consistent
     *  cut usable as another engine's `initial_done`. */
    std::vector<uint8_t> snapshotDone() const { return done_; }

    /** True once every node has completed. */
    bool finished() const { return completed_ == total_; }

    /**
     * Install a callback invoked *synchronously* from the completion
     * of the last node (no event is scheduled, so the surrounding
     * event stream is unchanged). Used by the cluster simulator to
     * observe per-job finish times while co-executing many engines on
     * one event queue.
     */
    void setOnFinished(EventCallback cb) { onFinished_ = std::move(cb); }

    /** Number of completed ET nodes. */
    size_t completedNodes() const { return completed_; }
    size_t totalNodes() const { return total_; }

    /**
     * Attach the tracing sink (docs/trace.md): every node execution
     * becomes a complete span on its rank's track (tid = NPU id)
     * under process `pid` (0 for single-job runs, job id + 1 in the
     * cluster). Null detaches. Purely observational.
     */
    void setTracer(trace::Tracer *tracer, int32_t pid);

    /**
     * Convenience: start(), drain the event queue, and fatal() if the
     * workload deadlocked (e.g., mismatched send/recv pairs).
     * Returns the finish time.
     */
    TimeNs run();

  private:
    void issue(NpuId npu, size_t index);
    void onDone(NpuId npu, size_t index);

    /** Flat index of node `index` of NPU `npu` in the arenas. */
    size_t
    flatIndex(NpuId npu, size_t index) const
    {
        return nodeBase_[static_cast<size_t>(npu)] + index;
    }

    std::vector<std::unique_ptr<Sys>> &sys_;
    const Workload &wl_;

    // Arena-allocated ready-node state (CSR across all graphs; see
    // file comment). childStart_ has one extra sentinel entry per the
    // usual CSR convention: node g's children are
    // children_[childStart_[g] .. childStart_[g + 1]).
    std::vector<size_t> nodeBase_;    //!< per-NPU arena offset.
    std::vector<int> indegree_;       //!< unmet parents per node.
    std::vector<uint32_t> childStart_; //!< CSR row starts (+1 sentinel).
    std::vector<uint32_t> children_;  //!< child node indices (graph-local).
    std::vector<uint8_t> done_;       //!< per-node completion flags.

    size_t total_ = 0;
    size_t completed_ = 0;
    bool cancelled_ = false;
    EventCallback onFinished_;

    // Tracing (null = disabled): per-node issue timestamps and the
    // tracer's ids for the workload's names and the node type names,
    // filled only when a tracer attaches.
    trace::Tracer *tracer_ = nullptr;
    int32_t tracePid_ = 0;
    std::vector<TimeNs> issuedAt_;
    std::vector<uint32_t> traceNames_;
    std::array<uint32_t, size_t(NodeType::CommRecv) + 1> traceTypeNames_{};
};

} // namespace astra

#endif // ASTRA_WORKLOAD_ENGINE_H_
