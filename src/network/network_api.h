/**
 * @file
 * The ASTRA-sim frontend NetworkAPI (paper §IV-C, Snippet 2).
 *
 * The system layer delegates all communication to a backend through
 * this interface: `simSend` hands a message to the network, and the
 * backend invokes callbacks when injection finishes and when the
 * message is delivered. `simRecv` posts a receive that is matched
 * against deliveries by (src, dst, tag), exactly like the
 * sim_send/sim_recv pair in the paper. `simSchedule` exposes the
 * backend's event queue for timed callbacks.
 *
 * Three backends implement the interface (docs/network.md):
 *  - AnalyticalNetwork (src/network/analytical.h): the paper's
 *    equation-based backend with first-order transmit serialization.
 *  - FlowNetwork (src/network/flow/flow_network.h): congestion-aware
 *    fluid-flow backend — explicit link graph, max-min fair bandwidth
 *    sharing, event-driven re-rating (the middle fidelity point).
 *  - PacketNetwork (src/network/detailed/packet_network.h): a
 *    packet-level store-and-forward reference used for validation and
 *    the simulation-speed study (substitute for Garnet / the real
 *    NCCL testbed).
 */
#ifndef ASTRA_NETWORK_NETWORK_API_H_
#define ASTRA_NETWORK_NETWORK_API_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "event/event_queue.h"
#include "topology/topology.h"

namespace astra {

namespace trace {
class Tracer;
struct Counters;
} // namespace trace

/** Route hint: send within a specific topology dimension. */
constexpr int kAutoRoute = -1;

/** Tag value that bypasses simRecv matching (callback-only messages,
 *  used by the collective engine's internal traffic). */
constexpr uint64_t kNoTag = ~0ULL;

/** Per-message completion callbacks (either may be null). */
struct SendHandlers
{
    /** Fires when the message has fully left the source (TX done). */
    EventCallback onInjected;
    /** Fires when the message has fully arrived at the destination. */
    EventCallback onDelivered;
};

/**
 * Cumulative traffic counters per topology dimension.
 *
 * Besides payload accounting, every backend reports *link occupancy*:
 * `busyTimePerDim[d]` accumulates the nanoseconds its serialization
 * points in dimension `d` spent transmitting (summed over links), and
 * `maxLinkBusyNs` tracks the single busiest link. Divided by the
 * run's end-to-end time these yield utilization figures — the
 * max-link number is the hot-link saturation metric sweeps rank by
 * (Report::maxLinkUtilization()). What counts as a "link" is
 * backend-specific: the analytical backend has one per (NPU, dim)
 * transmit port; the flow and packet backends count every directed
 * link of their explicit graphs (`linksPerDim` records how many, so
 * per-dim busy time can be normalized into a mean busy fraction).
 */
struct NetworkStats
{
    std::vector<double> bytesPerDim; //!< payload bytes sent per dim.
    std::vector<double> busyTimePerDim; //!< link-busy ns summed per dim.
    std::vector<int> linksPerDim; //!< serialization points per dim.
    double maxLinkBusyNs = 0.0;   //!< busiest single link's busy ns.
    uint64_t messages = 0;
};

/**
 * Abstract network backend; see file comment.
 *
 * Lifetime: the backend borrows the EventQueue and Topology, which
 * must outlive it.
 */
class NetworkApi
{
  public:
    NetworkApi(EventQueue &eq, const Topology &topo);
    virtual ~NetworkApi() = default;

    NetworkApi(const NetworkApi &) = delete;
    NetworkApi &operator=(const NetworkApi &) = delete;

    /**
     * Transmit `bytes` from `src` to `dst`.
     *
     * @param dim  topology dimension to route in, or kAutoRoute for
     *             dimension-ordered routing across all dims.
     * @param tag  message tag used by simRecv matching.
     */
    virtual void simSend(NpuId src, NpuId dst, Bytes bytes, int dim,
                         uint64_t tag, SendHandlers handlers) = 0;

    /**
     * Post a receive at `dst` for a message from `src` with `tag`.
     * Fires immediately if the message already arrived (eager buffer).
     * Virtual so decorating views (cluster/rank_view.h) can forward
     * matching to the backend that actually sees the deliveries.
     */
    virtual void simRecv(NpuId dst, NpuId src, uint64_t tag,
                         EventCallback cb);

    /** Schedule a callback after `delay` ns (Snippet 2 sim_schedule). */
    void simSchedule(TimeNs delay, EventCallback &&cb);

    /**
     * Fault hooks (src/fault/): rescale or cut the capacity of the
     * links a `(src, dst, dim)` selector names — the dimension-ordered
     * path for a concrete `dst`, or every egress link of `src` when
     * `dst < 0` (`dim < 0` = all dimensions). Scales are absolute
     * (the latest call wins, they do not compound) and must be > 0;
     * full outages go through setLinkUp. The base implementation
     * fatal()s: backends opt in, and each models faults at its own
     * fidelity (docs/fault.md).
     */
    virtual void setLinkCapacityScale(NpuId src, NpuId dst, int dim,
                                      double scale);
    /** Take the selected links down (traffic stalls/parks) or bring
     *  them back up (stalled traffic resumes). See above. */
    virtual void setLinkUp(NpuId src, NpuId dst, int dim, bool up);

    /**
     * Attribution channel for multi-tenant accounting: while non-null,
     * link-busy time caused by subsequently submitted sends is *also*
     * added to `owner[dim]` (cluster dimension space). The cluster's
     * per-job views set this around each forwarded simSend and clear
     * it afterwards; a message/flow keeps the pointer it was submitted
     * with for its whole lifetime, so busy time lands on the right
     * job even when it accrues long after submission.
     */
    void setSendOwner(std::vector<double> *owner) { sendOwner_ = owner; }

    /** One unmatched send/recv record (dangling-I/O introspection). */
    struct PendingIo
    {
        NpuId dst = -1;
        NpuId src = -1;
        uint64_t tag = 0;
        int count = 0;
    };

    /** Posted receives no delivery ever matched. */
    std::vector<PendingIo> danglingRecvs() const;
    /** Deliveries that arrived but were never claimed by a simRecv. */
    std::vector<PendingIo> unclaimedDeliveries() const;
    /** Human-readable digest of both, for deadlock diagnostics. */
    std::string danglingSummary(size_t max_items = 6) const;

    /**
     * Attach the tracing sink (docs/trace.md; null detaches). Borrowed
     * — the tracer must outlive the backend's traffic. Backends
     * override to register their link tracks (each backend owns its
     * own dense link-index space: TX ports for analytical, LinkIds
     * for flow/packet) and then emit message/flow lifetimes at detail
     * `full` plus per-link busy intervals for the utilization series.
     * Purely observational: tracing never alters simulation results.
     */
    virtual void setTracer(trace::Tracer *tracer) { tracer_ = tracer; }
    trace::Tracer *tracer() const { return tracer_; }

    /** Add backend-specific self-profiling counters (e.g. the flow
     *  backend's incremental-solver work) to a trace counter registry;
     *  the base backend has none. */
    virtual void fillTraceCounters(trace::Counters &counters) const
    {
        (void)counters;
    }

    /**
     * Heap bytes held by the backend's own state (telemetry footprint
     * protocol, docs/observability.md). Capacity-based — a
     * deterministic function of the traffic, not of malloc — and
     * shallow where objects nest (pool slot storage, not per-slot
     * member heaps). The base accounting covers the shared
     * matching/dangling maps; backends add their graphs, ports, and
     * pools on top.
     */
    virtual size_t bytesInUse() const;

    /**
     * Slots the backend's in-flight-unit pool has allocated (flows
     * for the flow backend, messages for the packet backend; the
     * analytical backend has no per-message state and reports 0).
     * The bytes/flow headline metric is bytesInUse() / flowSlots().
     */
    virtual size_t flowSlots() const { return 0; }

    /** In-flight units right now (active flows / messages; 0 where
     *  the backend keeps no such state). Heartbeat gauge. */
    virtual size_t activeCount() const { return 0; }

    TimeNs now() const { return eq_.now(); }
    EventQueue &eventQueue() { return eq_; }
    const Topology &topology() const { return topo_; }
    const NetworkStats &stats() const { return stats_; }

  protected:
    /** Implementations call this when a message reaches `dst`;
     *  it resolves simRecv matching and the onDelivered handler. */
    void deliver(NpuId src, NpuId dst, uint64_t tag,
                 EventCallback on_delivered);

    /** Complete a src == dst message: no network resources, both
     *  handlers fire after a zero-delay deferral (uniform callback
     *  ordering across backends). */
    void deliverLoopback(NpuId src, uint64_t tag, SendHandlers handlers);

    /**
     * Schedule the delivery side of a message for time `at`. kNoTag
     * (callback-only) messages skip simRecv matching entirely, so the
     * completion callback itself is the delivery event — no wrapper
     * closure, no deliver() dispatch; a null callback still schedules
     * (as an empty event) to keep event counts and final-time
     * semantics identical across backends. Tagged messages route
     * through deliver() for matching.
     */
    void scheduleDelivery(TimeNs at, NpuId src, NpuId dst, uint64_t tag,
                          EventCallback &&on_delivered);

    /** Dimension a message's payload is attributed to in stats():
     *  `dim` itself, or — for kAutoRoute — the first dimension the
     *  dimension-ordered path crosses. */
    int accountDim(NpuId src, NpuId dst, int dim) const;

    /** Record payload accounting for stats(). */
    void account(int dim, Bytes bytes);

    /**
     * Record `delta` ns of transmit-busy time on a link of dimension
     * `dim` whose cumulative busy time is now `link_total` (the
     * caller keeps the per-link counter; passing the new total lets
     * the max-link tracker update in O(1) per call).
     */
    void accountBusy(int dim, TimeNs delta, TimeNs link_total);

    EventQueue &eq_;
    const Topology &topo_;
    NetworkStats stats_;
    /** Per-job attribution target; see setSendOwner(). */
    std::vector<double> *sendOwner_ = nullptr;
    /** Tracing sink; null (the default) disables all trace hooks. */
    trace::Tracer *tracer_ = nullptr;

  private:
    struct PendingKey
    {
        NpuId dst;
        NpuId src;
        uint64_t tag;
        auto operator<=>(const PendingKey &) const = default;
    };

    /** Deliveries that arrived before the matching simRecv. */
    std::map<PendingKey, int> arrived_;
    /** Posted receives awaiting a delivery. */
    std::map<PendingKey, std::vector<EventCallback>> posted_;
};

/** Backend selector used by the simulator facade. */
enum class NetworkBackendKind {
    Analytical,       //!< equation-based with TX serialization (default).
    AnalyticalPure,   //!< pure equations, no serialization queueing.
    Flow,             //!< congestion-aware fluid flows, max-min fair.
    Packet,           //!< detailed packet-level reference backend.
};

/** Config-schema name of each backend kind, in enum order: the one
 *  table backendName() and backendFromJson() read. */
inline constexpr const char *kBackendNames[] = {
    "analytical", "analytical-pure", "flow", "packet"};

/** Config-schema name of a backend kind ("analytical", "flow", ...). */
const char *backendName(NetworkBackendKind kind);

/** Factory for the built-in backends. */
std::unique_ptr<NetworkApi> makeNetwork(NetworkBackendKind kind,
                                        EventQueue &eq,
                                        const Topology &topo);

} // namespace astra

#endif // ASTRA_NETWORK_NETWORK_API_H_
