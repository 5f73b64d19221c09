/**
 * @file
 * Packet-level store-and-forward network backend.
 *
 * This is the "detailed" reference backend standing in for both the
 * Garnet (gem5) backend and the real NCCL/V100 testbed of the paper's
 * Fig. 4 validation: it does not apply the analytical closed form but
 * simulates every message as a train of packets crossing explicit
 * links with FIFO serialization, per-hop latency, and contention.
 *
 * The link graph and the dimension-ordered routes come from the
 * shared LinkGraph expansion (network/flow/link_graph.h), so this
 * backend and the flow-level backend resolve contention over the
 * *identical* topology-to-links mapping by construction — the
 * accuracy comparisons in bench_flow_vs_packet and the equivalence
 * tests rely on that. This backend adds the per-link FIFO state
 * (next-free time) on top.
 */
#ifndef ASTRA_NETWORK_DETAILED_PACKET_NETWORK_H_
#define ASTRA_NETWORK_DETAILED_PACKET_NETWORK_H_

#include <map>
#include <vector>

#include "common/slot_pool.h"
#include "network/flow/link_graph.h"
#include "network/network_api.h"

namespace astra {

/** Detailed packet-level backend (see file comment). */
class PacketNetwork : public NetworkApi
{
  public:
    /**
     * @param packet_bytes     maximum packet payload; messages are
     *                         split into ceil(bytes / packet_bytes)
     *                         packets.
     * @param header_bytes     per-packet protocol header serialized
     *                         along with the payload (the closed-form
     *                         backend ignores it).
     * @param message_overhead fixed software/NIC launch latency per
     *                         message before the first packet enters
     *                         the network.
     */
    PacketNetwork(EventQueue &eq, const Topology &topo,
                  Bytes packet_bytes = 4096.0, Bytes header_bytes = 0.0,
                  TimeNs message_overhead = 0.0);

    void simSend(NpuId src, NpuId dst, Bytes bytes, int dim, uint64_t tag,
                 SendHandlers handlers) override;

    /**
     * Fault hooks (docs/fault.md). A degraded link serializes packets
     * at `bandwidth * scale`; a *down* link parks arriving packets in
     * a per-link FIFO and releases them in order when the link comes
     * back up. Injection completion still tracks the source port's
     * free time only — a send into a downed first hop reports
     * "injected" once its packets are queued at the dead port (an
     * async NIC with an unbounded egress queue).
     */
    void setLinkCapacityScale(NpuId src, NpuId dst, int dim,
                              double scale) override;
    void setLinkUp(NpuId src, NpuId dst, int dim, bool up) override;

    /** Registers one link track per directed LinkGraph link; per-hop
     *  port occupancy feeds the utilization series (and coalesced
     *  occupancy spans at full detail); see docs/trace.md. */
    void setTracer(trace::Tracer *tracer) override;

    const LinkGraph &graph() const { return graph_; }

    /** Number of directed links in the shared graph. */
    size_t linkCount() const { return graph_.linkCount(); }

    /** The message pool doubles as this backend's in-flight-unit pool
     *  for the bytes/flow footprint metric (telemetry). */
    size_t flowSlots() const override { return messages_.slots(); }

    /** Heartbeat gauge: messages currently in flight. */
    size_t activeCount() const override { return messages_.liveCount(); }

    /** Adds the link graph, port FIFOs, message pool and parking lots
     *  to the base accounting (telemetry footprint protocol). */
    size_t bytesInUse() const override;

  private:
    /** Mutable FIFO state per LinkGraph link (indexed by LinkId). */
    struct PortState
    {
        TimeNs freeAt = 0.0;
        TimeNs busyNs = 0.0; //!< cumulative transmit time (stats).
    };

    /**
     * In-flight message bookkeeping in a generational SlotPool
     * (common/slot_pool.h, the idiom shared with CollectiveEngine's
     * instances and FlowNetwork's flows): the per-packet arrival path
     * is one array indexing instead of a hash lookup, and a stale id
     * (message already delivered, slot recycled) is detected by the
     * pool's generation check.
     */
    struct Message
    {
        NpuId src = 0;
        NpuId dst = 0;
        uint64_t tag = 0;
        int dim = 0;              //!< topology dimension (trace tag).
        int packetsRemaining = 0; //!< 0 while the slot is free.
        TimeNs traceStart = 0.0;  //!< submission time (trace lifetimes).
        SendHandlers handlers;
        /** Per-job attribution target captured at submission (the
         *  NetworkApi send-owner channel); null when unattributed. */
        std::vector<double> *owner = nullptr;
    };

    /** A packet held at an administratively-down link. */
    struct ParkedPacket
    {
        uint64_t msgId = 0;
        const std::vector<LinkId> *path = nullptr;
        size_t hop = 0;
        Bytes bytes = 0.0;
    };

    void launchMessage(uint64_t msg_id, const std::vector<LinkId> *path,
                       Bytes bytes, int packets,
                       EventCallback on_injected);
    void forwardPacket(uint64_t msg_id, const std::vector<LinkId> *path,
                       size_t hop, Bytes pkt_bytes);
    void packetArrived(uint64_t msg_id);

    LinkGraph graph_;
    Bytes packetBytes_;
    Bytes headerBytes_;
    TimeNs messageOverhead_;
    std::vector<PortState> ports_;    //!< per-link FIFO state.
    SlotPool<Message> messages_;
    // Fault state: per-link service-rate scale and up/down flag
    // (all-1.0 / all-up defaults are bit-identical to the pre-fault
    // arithmetic), plus the per-link parking lots of down links.
    std::vector<double> portScale_;
    std::vector<uint8_t> portUp_;
    std::map<LinkId, std::vector<ParkedPacket>> parked_;
};

} // namespace astra

#endif // ASTRA_NETWORK_DETAILED_PACKET_NETWORK_H_
