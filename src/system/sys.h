/**
 * @file
 * The per-NPU system layer (paper Fig. 1(c)).
 *
 * Sys owns one NPU's execution resources and the boundary to the
 * shared backends: a serializing compute unit (roofline-timed), a
 * serializing DMA queue into the Memory API, the collective engine,
 * and point-to-point sends/receives through the NetworkAPI. The
 * graph-based execution engine issues ready ET nodes here; Sys
 * schedules them, tracks per-class busy intervals in a
 * BreakdownTracker (compute / comm / local mem / remote mem), and
 * invokes the completion callback that lets the workload layer
 * release dependent nodes.
 */
#ifndef ASTRA_SYSTEM_SYS_H_
#define ASTRA_SYSTEM_SYS_H_

#include <cstdint>

#include "collective/engine.h"
#include "common/stats.h"
#include "memory/memory_model.h"
#include "system/compute.h"

namespace astra {

/** Per-NPU system-layer configuration. */
struct SysConfig
{
    ComputeConfig compute;
    /** Default chunking factor applied to collective nodes. */
    int collectiveChunks = 8;
    /** Default collective scheduling policy (§V-A). */
    SchedPolicy policy = SchedPolicy::Baseline;
    /** Conservative chunk serialization (see CollectiveRequest). */
    bool serializeChunks = false;
};

/** See file comment. */
class Sys
{
  public:
    Sys(NpuId npu, const SysConfig &cfg, CollectiveEngine &coll,
        const MemoryModel &mem);

    Sys(const Sys &) = delete;
    Sys &operator=(const Sys &) = delete;

    NpuId npu() const { return npu_; }

    /** Run a roofline-timed operator on the NPU's compute unit. */
    void issueCompute(Flops flops, Bytes tensor_bytes, EventCallback done);

    /** Run a memory transfer through the Memory API (DMA queue). */
    void issueMemory(MemLocation loc, MemOp op, Bytes bytes, bool fused,
                     EventCallback done);

    /**
     * Join a collective. `req.chunks == 0` / default policy fields
     * are filled from the SysConfig.
     */
    void issueCollective(uint64_t key, CollectiveRequest req,
                         EventCallback done);

    /** Point-to-point send; completes when fully injected. */
    void issueSend(NpuId peer, Bytes bytes, uint64_t tag,
                   EventCallback done);

    /** Point-to-point receive; completes at message delivery. */
    void issueRecv(NpuId peer, uint64_t tag, EventCallback done);

    /** Busy-interval integration; finish() before reading. */
    BreakdownTracker &tracker() { return tracker_; }
    const BreakdownTracker &tracker() const { return tracker_; }

    /**
     * Persistent compute slowdown (fault injection's "straggler"):
     * every subsequent compute duration is multiplied by `scale`.
     * Absolute, not compounding — the latest call wins. The default
     * 1.0 is bit-identical to an unscaled NPU.
     */
    void setComputeScale(double scale) { computeScale_ = scale; }
    double computeScale() const { return computeScale_; }

    /**
     * Occupy the compute unit for `duration` ns starting as soon as
     * it is free (checkpoint cost): queued work behind it is pushed
     * back exactly like a compute node, and the interval is tracked
     * as Compute activity. No-op for duration <= 0.
     */
    void stallCompute(TimeNs duration);

    const SysConfig &config() const { return cfg_; }

    /** The shared event queue driving this NPU's backends. */
    EventQueue &eventQueue() { return coll_.network().eventQueue(); }

    /** The network backend this NPU's traffic flows through. */
    NetworkApi &network() { return coll_.network(); }

  private:
    using Activity = BreakdownTracker::Activity;

    EventQueue &eq();

    NpuId npu_;
    SysConfig cfg_;
    CollectiveEngine &coll_;
    const MemoryModel &mem_;
    RooflineCompute roofline_;
    BreakdownTracker tracker_;
    TimeNs computeFreeAt_ = 0.0;
    TimeNs memFreeAt_ = 0.0;
    double computeScale_ = 1.0;
};

} // namespace astra

#endif // ASTRA_SYSTEM_SYS_H_
