/**
 * @file
 * Event-driven multi-rail hierarchical collective executor.
 *
 * Every NPU in a collective's group joins an instance (identified by a
 * caller-provided key); when the last member joins, the instance
 * starts. Each chunk of the collective walks its per-dimension phase
 * list (phases.h) as a per-NPU state machine exchanging real messages
 * through the NetworkAPI backend, so pipelining between chunks and
 * bandwidth contention between phases emerge from the backend's
 * transmit-port serialization rather than from closed-form shortcuts.
 * This mirrors how the real ASTRA-sim system layer drives collectives
 * through sim_send/sim_recv.
 *
 * Per-NPU completion fires when that NPU has finished its part of
 * every chunk, which lets the workload layer overlap subsequent
 * compute with stragglers exactly like the real system layer.
 *
 * Hot-path layout (see docs/eventcore.md): each instance keeps its
 * chunk state in one flat array indexed by (group-local rank, chunk),
 * where the rank is the mixed radix over the instance's group factors,
 * and caches each phase's group position and message count in that
 * state when the phase is entered. A delivery is a pool lookup
 * plus one array indexing. Retired instances are recycled through a
 * free list; ids carry a generation tag so a message addressed to a
 * retired instance is still detected.
 */
#ifndef ASTRA_COLLECTIVE_ENGINE_H_
#define ASTRA_COLLECTIVE_ENGINE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "collective/phases.h"
#include "collective/scheduler.h"
#include "collective/types.h"
#include "common/slot_pool.h"
#include "network/network_api.h"

namespace astra {

/** See file comment. */
class CollectiveEngine
{
  public:
    explicit CollectiveEngine(NetworkApi &net);

    CollectiveEngine(const CollectiveEngine &) = delete;
    CollectiveEngine &operator=(const CollectiveEngine &) = delete;

    /**
     * Join `npu` to the collective identified by `key`.
     *
     * All members of the group (NPUs sharing `npu`'s coordinates
     * outside the participating group factors) must eventually join
     * with the same key and an equivalent request. `on_complete`
     * fires when this NPU's participation ends.
     */
    void join(uint64_t key, NpuId npu, const CollectiveRequest &req,
              EventCallback on_complete);

    /** Total bytes sent per topology dimension (all NPUs, all time). */
    const std::vector<double> &sentBytesPerDim() const { return sent_; }

    /** The shared dimension-order scheduler (persistent loads). */
    CollectiveScheduler &scheduler() { return scheduler_; }

    NetworkApi &network() { return net_; }

    /** Number of collective instances that ran to completion. */
    uint64_t completedInstances() const { return completedInstances_; }

    /**
     * Quiesce every in-flight collective: arriving messages are
     * dropped instead of pumping the chunk state machines, so no
     * further sends are issued and no completion callbacks fire.
     * Irreversible. Used for abandoned incarnations after an NPU
     * failure (docs/fault.md): traffic already in the fabric drains
     * normally, but the ghost stack must not keep feeding whole
     * chunk pipelines into the shared fabric for the rest of the
     * cluster run.
     */
    void cancelAll() { cancelled_ = true; }
    bool cancelled() const { return cancelled_; }

    /**
     * Heap bytes held by the engine's own state (telemetry footprint
     * protocol, docs/observability.md): the instance pool including
     * the per-instance vectors recycled slots keep warm (their
     * capacities are a deterministic function of the traffic), the
     * rendezvous table, and the scratch arrays. Excludes the network
     * backend, which reports itself.
     */
    size_t bytesInUse() const;

    /**
     * Attach the tracing sink (docs/trace.md): each instance becomes
     * an open span on its pool slot's track (tid = kCollTidBase +
     * slot, so concurrently live instances never share a track) under
     * process `pid`; at full detail every (member, chunk, phase)
     * traversal adds a span on the member's rank track. Null
     * detaches. Purely observational.
     */
    void
    setTracer(trace::Tracer *tracer, int32_t pid)
    {
        tracer_ = tracer;
        tracePid_ = pid;
    }

  private:
    /** One member's progress through one chunk's phase list.
     *  `mult`, `pos`, `expect` and `ph` are fixed at phase entry
     *  (advance()), so the per-message path reads them instead of
     *  recomputing them. */
    struct ChunkState
    {
        bool started = false; //!< member entered this chunk (advance()
                              //!< ran); messages arriving earlier are
                              //!< held in Instance::early.
        uint32_t phase = 0; //!< index into the chunk's phase list.
        int sent = 0;       //!< algorithm steps sent in current phase.
        int recvd = 0;      //!< messages received in current phase.
        int mult = 1;       //!< rank-space multiplier of the phase.
        int pos = 0;        //!< member's position in the phase group.
        int expect = 0;     //!< messages the member sends and awaits
                            //!< this phase (every algorithm is a
                            //!< symmetric exchange).
        const Phase *ph = nullptr; //!< the current phase.
        /** Entry time of the current phase; maintained only at full
         *  trace detail (phase spans). */
        TimeNs phaseEnteredAt = 0.0;
    };

    struct MemberState
    {
        EventCallback onComplete;
        bool joined = false;
        int chunksDone = 0;
    };

    struct Instance
    {
        /** Pool id (SlotPool slot | generation << 32); 0 while the
         *  slot is free. Cached here so per-message closures can carry
         *  it without a pool lookup. */
        uint64_t id = 0;
        CollectiveRequest req;
        std::vector<GroupDim> groups; //!< normalized factors.
        int groupSize = 1;
        int joinedMembers = 0;
        int completedMembers = 0;
        /** Every chunk's phase list, back to back: chunk c owns
         *  phases[phaseStart[c] .. phaseStart[c + 1]). */
        std::vector<Phase> phases;
        std::vector<uint32_t> phaseStart;
        /** phaseMult[i]: rank-space multiplier of phases[i]'s group
         *  factor (product of the sizes of the group factors before it
         *  in `groups`), so a member's position in the phase group is
         *  `(rank / mult) % group.size`. advance() evaluates it once
         *  per phase entry and keeps it in the ChunkState. */
        std::vector<int> phaseMult;
        /** Dense member state, indexed by group-local rank. */
        std::vector<MemberState> members;
        /** chunkStates[rank * req.chunks + chunk]. */
        std::vector<ChunkState> chunkStates;
        /** Messages that arrived for a later phase than the member is
         *  in (rails of the same dimension progress independently
         *  under contention), indexed rank * phases.size() +
         *  phaseStart[chunk] + phase; consumed when the phase is
         *  entered. */
        std::vector<int> early;
        /** rank -> NPU id (for sends and the deterministic kick
         *  order). */
        std::vector<NpuId> npuOfRank;
        /** Open trace span of this instance (Tracer::kNoSpan when
         *  tracing is off or the span is closed). */
        uint32_t traceSpan = 0xffffffffu;

        ChunkState &
        state(int rank, int chunk)
        {
            return chunkStates[static_cast<size_t>(rank) *
                                   static_cast<size_t>(req.chunks) +
                               static_cast<size_t>(chunk)];
        }
        int &
        earlyCount(int rank, int chunk, uint32_t phase)
        {
            return early[static_cast<size_t>(rank) * phases.size() +
                         phaseStart[static_cast<size_t>(chunk)] + phase];
        }
    };

    /** Rendezvous key: (caller key, canonical group representative). */
    struct RendezvousKey
    {
        uint64_t key;
        NpuId base;
        bool operator==(const RendezvousKey &) const = default;
    };
    struct RendezvousHash
    {
        size_t
        operator()(const RendezvousKey &k) const
        {
            uint64_t h = k.key ^ (static_cast<uint64_t>(
                                      static_cast<uint32_t>(k.base)) *
                                  0x9e3779b97f4a7c15ULL);
            h ^= h >> 33;
            h *= 0xff51afd7ed558ccdULL;
            h ^= h >> 33;
            return static_cast<size_t>(h);
        }
    };

    /** Group canonical representative: `npu` with all participating
     *  group positions zeroed. */
    NpuId groupBase(NpuId npu, const std::vector<GroupDim> &groups) const;

    /** Dense group-local rank: mixed radix over the group factors. */
    int rankOf(const Instance &inst, NpuId npu) const;

    uint64_t allocInstance();
    Instance *findInstance(uint64_t id);
    void releaseInstance(Instance &inst);

    void start(Instance &inst);
    // The per-message state machine runs entirely in rank space: the
    // member's dense rank is computed once per external event and
    // passed through; peers are rank deltas resolved via npuOfRank.
    void advance(Instance &inst, int rank, int chunk);
    void pump(Instance &inst, int rank, int chunk);
    void onMessage(uint64_t inst_id, int rank, int chunk,
                   uint32_t phase_idx);
    void sendStep(Instance &inst, int rank, int chunk,
                  const ChunkState &st, int step);
    /** Messages each member sends, and receives, in a phase. */
    static int expectedRecvs(const Phase &ph);

    NetworkApi &net_;
    const Topology &topo_;
    CollectiveScheduler scheduler_;
    std::vector<double> sent_;
    std::unordered_map<RendezvousKey, uint64_t, RendezvousHash>
        rendezvous_;
    SlotPool<Instance> instances_; //!< recycled; nested capacities kept.
    std::vector<int> kickScratch_;    //!< reused by start().
    uint64_t completedInstances_ = 0;
    uint64_t startedInstances_ = 0; //!< issue-order ordinal source.
    bool cancelled_ = false;
    trace::Tracer *tracer_ = nullptr; //!< null = tracing disabled.
    int32_t tracePid_ = 0;
};

/** Result of a standalone collective run (runCollective helper). */
struct CollectiveRunResult
{
    TimeNs finish = 0.0;            //!< time the last NPU completed.
    std::vector<double> sentPerDim; //!< total bytes sent per dimension.
};

/**
 * Convenience for benches/tests: run a single collective over the
 * full topology (all NPUs join at the current time) and drain the
 * event queue. Returns the completion time of the last member.
 */
CollectiveRunResult runCollective(CollectiveEngine &engine,
                                  const CollectiveRequest &req);

} // namespace astra

#endif // ASTRA_COLLECTIVE_ENGINE_H_
