/**
 * @file
 * Congestion-aware flow-level network backend (docs/network.md).
 *
 * The middle fidelity point between the closed-form analytical model
 * and the packet-level reference: every in-flight message is a *fluid
 * flow* over its explicit link path (LinkGraph), and link bandwidth is
 * shared between concurrent flows by progressive-filling **max-min
 * fairness** — the steady-state allocation of per-flow fair queueing,
 * and the classic fluid approximation used by flow-level simulators.
 * There are no per-packet events: the simulation advances from rate
 * change to rate change.
 *
 * Incremental event-driven re-rating:
 *  - A flow arrival or departure marks its path's links dirty and
 *    schedules one deferred zero-delay solve, so any number of
 *    same-timestamp changes cost a single solve.
 *  - The solve does NOT re-rate every active flow. It walks the
 *    link<->flow incidence lists (LinkIncidence) from the dirty links
 *    to find the *affected components* — flows transitively sharing a
 *    link with a changed flow — and re-runs progressive filling only
 *    there. Max-min allocations decompose exactly over connected
 *    components of the sharing graph (and the transitive closure
 *    guarantees no unaffected flow touches a component link), so the
 *    rates of untouched flows are already at their fixpoint: skipping
 *    them is bit-exact, not an approximation. Components are filled
 *    in canonical (sorted-slot) order so an incremental solve and a
 *    full solve perform identical arithmetic.
 *  - Byte integration is lazy and per-flow: each flow carries a
 *    `lastUpdate` timestamp and its remaining bytes / per-link busy
 *    time are settled only when its rate actually changes or it
 *    completes — not at every solve. A flow whose re-filled rate is
 *    bit-equal to its current rate keeps its completion event
 *    untouched (the prediction is still exact), so only flows whose
 *    rate moved are re-scheduled. Stale completion events are dropped
 *    by (slot generation, epoch) checks, the SlotPool id-recycling
 *    idiom shared with the packet backend and the collective engine.
 *  - `setFullSolveVerify(true)` (tests / debugging) makes every solve
 *    additionally run the full per-component fill over all active
 *    flows and panic unless flows outside the affected set keep
 *    bit-identical rates and exact completion predictions — the
 *    equivalence contract `tests/flow/test_flow_solver_equivalence.cc`
 *    exercises end-to-end.
 *  - A flow's transmission finishes when its remaining bytes reach
 *    zero (fires onInjected); delivery follows after the path's
 *    constant hop-latency sum (fires onDelivered / simRecv matching).
 *
 * For a congestion-free message over Ring or Switch dimensions the
 * model reduces exactly to the analytical closed form
 * `bytes / bottleneck_bw + latency * hops`; FullyConnected dimensions
 * expose per-pair links at bw/(k-1) and therefore diverge from the
 * analytical aggregate-port charge in the same documented way the
 * packet backend does. Under contention, N flows crossing one link
 * each get 1/N of it (and unused headroom is redistributed max-min
 * fair), which the analytical backend cannot see beyond its own
 * transmit port.
 *
 * The hot path is allocation-free after warm-up: flows live in a
 * generational SlotPool, paths are cached LinkId vectors, incidence
 * lists and the solver's component/fill scratch are member arrays
 * stamped per solve, and every scheduled closure fits InlineEvent's
 * inline buffer.
 */
#ifndef ASTRA_NETWORK_FLOW_FLOW_NETWORK_H_
#define ASTRA_NETWORK_FLOW_FLOW_NETWORK_H_

#include <vector>

#include "common/slot_pool.h"
#include "network/flow/link_graph.h"
#include "network/network_api.h"

namespace astra {

/** See file comment. */
class FlowNetwork : public NetworkApi
{
  public:
    FlowNetwork(EventQueue &eq, const Topology &topo);

    void simSend(NpuId src, NpuId dst, Bytes bytes, int dim, uint64_t tag,
                 SendHandlers handlers) override;

    /**
     * Fault hooks (docs/fault.md). Degraded links simply fill with
     * `bandwidth * scale` capacity — the max-min solver needs no other
     * change, and the dirty-link incremental path re-rates exactly the
     * affected components. A *down* link is a zero-capacity fill: the
     * flows crossing it are frozen at rate 0 with **no** completion
     * event (a far-future event would outlive recovery and distort the
     * queue-drained time), and a later link-up re-solve re-rates and
     * re-schedules them. Busy-time accounting stays relative to the
     * nominal link bandwidth, so a degraded link's utilization reads
     * proportionally lower.
     */
    void setLinkCapacityScale(NpuId src, NpuId dst, int dim,
                              double scale) override;
    void setLinkUp(NpuId src, NpuId dst, int dim, bool up) override;

    /** Registers one link track per directed LinkGraph link. At full
     *  detail, flows additionally emit constant-rate segments (one
     *  per lazy integration stretch) on per-source tracks and a
     *  lifetime span on the source rank's track; see docs/trace.md. */
    void setTracer(trace::Tracer *tracer) override;

    /** Adds the incremental max-min solver work counters
     *  (solver_solves, solver_flows_touched, ...) — deterministic
     *  functions of the traffic, see SolverStats. */
    void fillTraceCounters(trace::Counters &counters) const override;

    const LinkGraph &graph() const { return graph_; }

    /** Flows currently transmitting. */
    size_t activeFlowCount() const { return active_.size(); }

    /** Flow slots allocated (live + recyclable); exposed so tests can
     *  verify free-list recycling, and the denominator of the
     *  bytes/flow footprint metric (telemetry). */
    size_t flowSlots() const override { return flows_.slots(); }

    /** Heartbeat gauge: in-flight flows (== activeFlowCount()). */
    size_t activeCount() const override { return active_.size(); }

    /** Adds the link graph, flow pool, incidence lists and solver
     *  scratch to the base accounting (telemetry footprint protocol).
     *  Shallow: per-flow cached paths belong to the graph's path
     *  cache, which LinkGraph::bytesInUse counts once. */
    size_t bytesInUse() const override;

    /** Max-min solves performed so far (one per dirty batch). */
    uint64_t solveCount() const { return solver_.solves; }

    /**
     * Incremental-solver work counters. `flowsTouched` sums the
     * affected-component sizes over all solves (the flows the solver
     * actually examined); `avgComponentFrac()` is the mean fraction
     * of active flows per solve that were affected — 1.0 means every
     * solve re-rated everything (the pre-incremental behaviour), and
     * values below 1 measure the work the incidence walk avoided.
     */
    struct SolverStats
    {
        uint64_t solves = 0;       //!< dirty batches solved.
        uint64_t flowsTouched = 0; //!< sum of affected flows per solve.
        uint64_t componentsTouched = 0; //!< affected components total.
        double componentFracSum = 0.0;  //!< sum of affected/active.

        double
        avgComponentFrac() const
        {
            return solves > 0 ? componentFracSum / double(solves) : 0.0;
        }
    };
    const SolverStats &solverStats() const { return solver_; }

    /** Cumulative transmit-busy nanoseconds of one directed link.
     *  Settled lazily — final once the event queue has drained. */
    TimeNs linkBusyNs(LinkId l) const { return linkBusy_[l]; }

    /**
     * Test / debug toggle: every solve additionally re-runs the
     * progressive filling over ALL active flows (per connected
     * component, in the same canonical order) and panics unless the
     * full solve agrees bit-exactly with the incremental one —
     * identical rates inside the affected set, unchanged rates and
     * exact completion predictions outside it.
     */
    void setFullSolveVerify(bool on) { fullSolveVerify_ = on; }

    /** Introspection snapshot of an active flow (tests). */
    struct FlowProbe
    {
        NpuId src = 0;
        NpuId dst = 0;
        Bytes remaining = 0.0;
        GBps rate = 0.0;
        TimeNs lastUpdateNs = 0.0;
        TimeNs predictedFinishNs = 0.0;
        uint32_t epoch = 0;
    };
    FlowProbe probeActiveFlow(size_t active_index) const;

  private:
    struct Flow
    {
        // Solver-hot fields first: a fill + apply pass stays within
        // the first cache line of each flow.
        const std::vector<LinkId> *path = nullptr;
        Bytes remaining = 0.0;  //!< as of `lastUpdate`, not "now".
        GBps rate = 0.0;
        TimeNs lastUpdate = 0.0; //!< when remaining/busy were settled.
        TimeNs predictedFinish = 0.0;
        uint32_t epoch = 0;     //!< completion-event generation.
        uint32_t activeIdx = 0; //!< position in active_ while active.
        bool active = false;
        bool hasEvent = false;
        // Completion/delivery-time fields.
        NpuId src = 0;
        NpuId dst = 0;
        uint64_t tag = 0;
        TimeNs latency = 0.0; //!< constant hop-latency sum of the path.
        TimeNs traceStart = 0.0; //!< submission time (trace lifetimes).
        /** Open coalesced rate segment (full-detail tracing): start
         *  time (< 0 = none) and the rate it was opened at. Stretches
         *  within 25% of traceRate extend the segment instead of
         *  emitting one event per max-min re-rate, and a flow whose rate
         *  never materially changed emits no segments at all — its
         *  `net` message span already tells the constant-rate story
         *  (docs/trace.md). */
        TimeNs traceSegStart = -1.0;
        GBps traceRate = 0.0;
        bool traceSegEmitted = false; //!< any segment emitted yet?
        SendHandlers handlers;
        /** Per-job attribution target captured at submission (the
         *  NetworkApi send-owner channel); must stay valid for the
         *  flow's lifetime. Null for unattributed traffic. */
        std::vector<double> *owner = nullptr;
    };

    /** Per-flow-slot solver scratch; see the member comment below. */
    struct SlotScratch
    {
        uint64_t visit = 0;        //!< BFS stamp (visitEpoch_).
        uint64_t affectedMark = 0; //!< solve counter when affected.
        double newRate = 0.0;      //!< incremental fill result.
        double verifyRate = 0.0;   //!< full-solve fill result.
    };

    /** Schedule the deferred re-solve if not already pending. */
    void markDirty();

    /** Seed every link of `path` into the dirty set (deduped). */
    void markLinksDirty(const std::vector<LinkId> &path);

    /** Settle one flow's remaining bytes and per-link busy time from
     *  its `lastUpdate` to `t` at its current (constant) rate. */
    void integrateFlow(Flow &flow, TimeNs t);

    /** Emit the open coalesced rate segment ending at `end`, if any
     *  (full-detail tracing; see Flow::traceSegStart). */
    void flushRateSegment(Flow &flow, TimeNs end);

    /** Incremental re-solve; see file comment. */
    void resolve();

    /** Append link `l`'s unvisited live members to `out` (stamping
     *  them with `epoch`), compacting stale incidence entries of
     *  departed flows in the same pass. */
    void scanLink(LinkId l, uint64_t epoch, std::vector<uint32_t> *out);

    /**
     * BFS from `seed` over the incidence lists: collect the connected
     * component of flows transitively sharing links, stamping links
     * and flows with `epoch`. No-op if `seed` was already visited
     * under `epoch`. `out` doubles as the BFS queue.
     */
    void collectComponent(LinkId seed, uint64_t epoch,
                          std::vector<uint32_t> *out);

    /**
     * Progressive filling over one component (`comp` sorted by slot,
     * stamped with `epoch`), writing each member's max-min rate into
     * `slotScratch_[slot].*out`. Links start at full capacity:
     * transitive closure guarantees no flow outside the component pins
     * bandwidth on a component link (the verify pass asserts this
     * instead of re-scanning memberships on the hot path).
     */
    void fillComponent(const std::vector<uint32_t> &comp, uint64_t epoch,
                       double SlotScratch::*out);

    /** Full-solve cross-check (setFullSolveVerify); panics on any
     *  divergence from the incremental result. */
    void verifyFullSolve();

    /** Completion-event handler; ignores stale (gen/epoch) firings. */
    void onCompletion(uint64_t id, uint32_t epoch);

    /** True if any link of `flow`'s path is administratively down. */
    bool crossesDeadLink(const Flow &flow) const;

    LinkGraph graph_;
    SlotPool<Flow> flows_;
    LinkIncidence incidence_;      //!< link -> active flows on it.
    std::vector<uint32_t> active_; //!< slots of in-flight flows.
    std::vector<TimeNs> linkBusy_; //!< cumulative busy ns per link.
    // Fault state: per-link capacity multiplier and up/down flag.
    // All-1.0 / all-up (the default) is bit-identical to the
    // pre-fault code paths (x * 1.0 == x for IEEE doubles).
    std::vector<double> capScale_;
    std::vector<uint8_t> linkUpState_;
    bool dirty_ = false;
    bool fullSolveVerify_ = false;
    SolverStats solver_;

    // Dirty-link seeds accumulated since the last solve (deduped by
    // stamp; the epoch advances when the seed list is drained).
    std::vector<LinkId> dirtySeeds_;
    std::vector<uint64_t> seedMark_;
    uint64_t seedEpoch_ = 1;

    // Component-walk scratch (per-link and per-slot stamp arrays keep
    // the BFS allocation-free; epochs advance per walk). Per-slot
    // fields live in one SlotScratch so a solve touches one cache
    // line per flow, and the array grows geometrically with the
    // pool's high-water mark (one branch per send in steady state).
    uint64_t visitEpoch_ = 0;
    std::vector<uint64_t> linkVisit_;     //!< per link.
    std::vector<SlotScratch> slotScratch_; //!< per flow slot.
    std::vector<uint32_t> comp_;     //!< current component / BFS queue.
    std::vector<uint32_t> affected_; //!< union of affected components.

    // Progressive-filling scratch (stamped per fill).
    uint64_t fillEpoch_ = 0;
    std::vector<uint64_t> fillStamp_; //!< per-link touch stamp.
    std::vector<uint32_t> touched_;   //!< links used by the component.
    std::vector<double> capLeft_;     //!< per-link unassigned capacity.
    std::vector<int> flowsLeft_;      //!< per-link unfixed flow count.
    std::vector<uint32_t> unfixed_;   //!< flows not yet assigned a rate.
};

} // namespace astra

#endif // ASTRA_NETWORK_FLOW_FLOW_NETWORK_H_
