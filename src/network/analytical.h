/**
 * @file
 * The analytical network backend of §IV-C.
 *
 * A message of `bytes` routed over `hops` links in dimension `d` costs
 *
 *     time = link_latency(d) * hops + bytes / bandwidth(d)
 *
 * instead of being simulated packet by packet. On top of the pure
 * equation, the backend (by default) serializes transmissions sharing
 * a (source NPU, dimension) transmit port: a message starts only when
 * the port is free, and occupies it for its serialization delay. This
 * first-order contention model is what makes chunked hierarchical
 * collectives pipeline across dimensions and reproduces the
 * bandwidth-bottleneck behaviour of Table IV; disabling it
 * (`serialize = false`) yields the pure closed-form variant.
 */
#ifndef ASTRA_NETWORK_ANALYTICAL_H_
#define ASTRA_NETWORK_ANALYTICAL_H_

#include <map>
#include <vector>

#include "network/network_api.h"

namespace astra {

/** Equation-based network backend (see file comment). */
class AnalyticalNetwork : public NetworkApi
{
  public:
    /**
     * @param serialize  enable per-(NPU,dim) transmit-port
     *                   serialization (first-order congestion).
     */
    AnalyticalNetwork(EventQueue &eq, const Topology &topo,
                      bool serialize = true);

    void simSend(NpuId src, NpuId dst, Bytes bytes, int dim, uint64_t tag,
                 SendHandlers handlers) override;

    /**
     * Fault hooks (docs/fault.md). The analytical model has no
     * individual links — its only serialization points are the
     * (source NPU, dimension) transmit ports — so fault selectors are
     * coarsened to that granularity: a concrete `dst` only picks the
     * *charged* dimension of the route, and a fault on one of several
     * parallel links is indistinguishable from degrading the whole
     * port (documented blindness, like the interference caveat). A
     * degraded port serializes at `bandwidth * scale`; a *down* port
     * parks whole sends (before any accounting) and re-issues them in
     * FIFO order when the port comes back up.
     */
    void setLinkCapacityScale(NpuId src, NpuId dst, int dim,
                              double scale) override;
    void setLinkUp(NpuId src, NpuId dst, int dim, bool up) override;

    /** Registers one link track per (NPU, dim) TX port — the model's
     *  serialization points; see docs/trace.md. */
    void setTracer(trace::Tracer *tracer) override;

    /** Adds the per-port arrays and parked-send lots to the base
     *  accounting (telemetry footprint protocol). */
    size_t bytesInUse() const override;

  private:
    struct Route
    {
        int dim;        //!< dimension whose TX port is charged.
        GBps bandwidth; //!< serialization bandwidth.
        TimeNs latency; //!< total hop-latency along the path.
    };

    /** Resolve routing for a message (single-dim or dimension-ordered). */
    Route resolve(NpuId src, NpuId dst, int dim) const;

    /** `npu`'s row of coord_: its coordinate in every dimension. */
    const int *
    coordRow(NpuId npu) const
    {
        return coord_.data() + static_cast<size_t>(npu) *
                                   static_cast<size_t>(topo_.numDims());
    }

    /** One dimension's routing constants. hopTable_[hops + to - from]
     *  is Topology::hopsInDim(from, to, d): the hop count depends only
     *  on the coordinate difference. */
    struct DimRoute
    {
        GBps bandwidth;
        TimeNs latency;
        int hops;
    };

    /** A send held at an administratively-down transmit port. */
    struct ParkedSend
    {
        NpuId src = 0;
        NpuId dst = 0;
        Bytes bytes = 0.0;
        int dim = 0;
        uint64_t tag = 0;
        SendHandlers handlers;
        std::vector<double> *owner = nullptr;
    };

    /** Dense index of (npu, dim)'s transmit port. */
    size_t portIndex(NpuId npu, int dim) const;

    /** Transmit ports a fault selector names (see setLink* docs). */
    std::vector<size_t> faultPorts(NpuId src, NpuId dst, int dim) const;

    /**
     * Claim transmit port `port` (portIndex()) for `ser` ns starting no
     * earlier than now; returns the granted start time and advances
     * the port's free time. Uses the shared kTimeEpsNs tolerance
     * (common/units.h) for its sanity check, matching EventQueue's
     * past-time check so a port-derived timestamp that is within
     * tolerance of now is always schedulable.
     */
    TimeNs claimTxPort(size_t port, TimeNs ser);

    bool serialize_;
    // Routing tables, built at construction so resolving a send reads
    // two coordinate rows and one hop count per dimension instead of
    // dividing. coord_[npu * numDims + dim] is the NPU's coordinate in
    // that dimension.
    std::vector<int> coord_;
    std::vector<DimRoute> dimRoute_;
    std::vector<int> hopTable_;
    /** txFree_[npu * numDims + dim]: next free time of that TX port. */
    std::vector<TimeNs> txFree_;
    /** Cumulative serialization time per TX port (same indexing);
     *  feeds the per-dim busy-time / max-link-utilization stats. The
     *  analytical model's only serialization points are the transmit
     *  ports, so they are its "links". */
    std::vector<TimeNs> txBusy_;
    // Fault state (same TX-port indexing): service-rate scale and
    // up/down flag — all-1.0 / all-up defaults are bit-identical to
    // the pre-fault arithmetic — plus the down-port parking lots.
    std::vector<double> txScale_;
    std::vector<uint8_t> txUp_;
    std::map<size_t, std::vector<ParkedSend>> parked_;
};

} // namespace astra

#endif // ASTRA_NETWORK_ANALYTICAL_H_
