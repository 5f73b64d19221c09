#include "network/analytical.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "trace/tracer.h"

namespace astra {

AnalyticalNetwork::AnalyticalNetwork(EventQueue &eq, const Topology &topo,
                                     bool serialize)
    : NetworkApi(eq, topo), serialize_(serialize)
{
    txFree_.assign(
        static_cast<size_t>(topo.npus()) *
            static_cast<size_t>(topo.numDims()),
        0.0);
    txBusy_.assign(txFree_.size(), 0.0);
    txScale_.assign(txFree_.size(), 1.0);
    txUp_.assign(txFree_.size(), 1);
    coord_.resize(txFree_.size());
    for (NpuId n = 0; n < topo.npus(); ++n)
        for (int d = 0; d < topo.numDims(); ++d)
            coord_[portIndex(n, d)] = topo.coordInDim(n, d);
    for (int d = 0; d < topo.numDims(); ++d) {
        const Dimension &dim = topo.dim(d);
        const int k = dim.size;
        dimRoute_.push_back(DimRoute{
            dim.bandwidth, dim.latency,
            static_cast<int>(hopTable_.size()) + k - 1});
        for (int delta = 1 - k; delta < k; ++delta)
            hopTable_.push_back(topo.hopsInDim(0, (delta + k) % k, d));
    }
    // One serialization point per (NPU, dimension) transmit port.
    for (int d = 0; d < topo.numDims(); ++d)
        stats_.linksPerDim[static_cast<size_t>(d)] = topo.npus();
}

void
AnalyticalNetwork::setTracer(trace::Tracer *tracer)
{
    NetworkApi::setTracer(tracer);
    if (!tracer)
        return;
    for (NpuId n = 0; n < topo_.npus(); ++n)
        for (int d = 0; d < topo_.numDims(); ++d)
            tracer->registerLink(
                uint32_t(portIndex(n, d)),
                detail::formatV("tx n%d.d%d", n, d));
}

size_t
AnalyticalNetwork::bytesInUse() const
{
    constexpr size_t kNodeOverhead = 4 * sizeof(void *);
    size_t bytes = NetworkApi::bytesInUse() +
                   txFree_.capacity() * sizeof(TimeNs) +
                   txBusy_.capacity() * sizeof(TimeNs) +
                   txScale_.capacity() * sizeof(double) +
                   txUp_.capacity() * sizeof(uint8_t) +
                   coord_.capacity() * sizeof(int) +
                   dimRoute_.capacity() * sizeof(DimRoute) +
                   hopTable_.capacity() * sizeof(int);
    for (const auto &[port, lot] : parked_) {
        (void)port;
        bytes += sizeof(size_t) + kNodeOverhead +
                 lot.capacity() * sizeof(ParkedSend);
    }
    return bytes;
}

AnalyticalNetwork::Route
AnalyticalNetwork::resolve(NpuId src, NpuId dst, int dim) const
{
    ASTRA_ASSERT(src >= 0 && src < topo_.npus() && dst >= 0 &&
                     dst < topo_.npus(),
                 "simSend: NPU out of range (%d -> %d)", src, dst);
    const int *from = coordRow(src);
    const int *to = coordRow(dst);
    if (dim != kAutoRoute) {
        ASTRA_ASSERT(dim >= 0 && dim < topo_.numDims(),
                     "simSend: bad dimension %d", dim);
        const DimRoute &d = dimRoute_[static_cast<size_t>(dim)];
        int hops = hopTable_[static_cast<size_t>(d.hops + to[dim] -
                                                 from[dim])];
        ASTRA_ASSERT(hops > 0 || src == dst,
                     "simSend: src %d and dst %d are not peers in dim %d",
                     src, dst, dim);
        return Route{dim, d.bandwidth, d.latency * hops};
    }

    // Dimension-ordered routing: accumulate hop latency across every
    // dimension the path traverses; serialization is charged at the
    // bottleneck (slowest) traversed dimension's transmit port.
    TimeNs latency = 0.0;
    GBps bottleneck = 0.0;
    int charged_dim = 0;
    bool found = false;
    for (int d = 0; d < topo_.numDims(); ++d) {
        const DimRoute &r = dimRoute_[static_cast<size_t>(d)];
        int hops = hopTable_[static_cast<size_t>(r.hops + to[d] - from[d])];
        if (hops == 0)
            continue;
        latency += r.latency * hops;
        if (!found || r.bandwidth < bottleneck) {
            bottleneck = r.bandwidth;
            charged_dim = d;
            found = true;
        }
    }
    if (!found) {
        // Self-send: deliver after zero network time.
        return Route{0, dimRoute_[0].bandwidth, 0.0};
    }
    return Route{charged_dim, bottleneck, latency};
}

size_t
AnalyticalNetwork::portIndex(NpuId npu, int dim) const
{
    return static_cast<size_t>(npu) *
               static_cast<size_t>(topo_.numDims()) +
           static_cast<size_t>(dim);
}

std::vector<size_t>
AnalyticalNetwork::faultPorts(NpuId src, NpuId dst, int dim) const
{
    ASTRA_USER_CHECK(src >= 0 && src < topo_.npus(),
                     "fault selector: src %d out of range for %d NPUs",
                     src, topo_.npus());
    ASTRA_USER_CHECK(dim < topo_.numDims(),
                     "fault selector: dim %d out of range for %d dims",
                     dim, topo_.numDims());
    std::vector<size_t> out;
    if (dim >= 0) {
        out.push_back(portIndex(src, dim));
    } else if (dst >= 0) {
        ASTRA_USER_CHECK(dst < topo_.npus(),
                         "fault selector: dst %d out of range for %d "
                         "NPUs", dst, topo_.npus());
        // Coarsened to the charged dimension of the route — the
        // analytical model cannot see individual links.
        out.push_back(portIndex(src, resolve(src, dst, kAutoRoute).dim));
    } else {
        for (int d = 0; d < topo_.numDims(); ++d)
            out.push_back(portIndex(src, d));
    }
    return out;
}

void
AnalyticalNetwork::setLinkCapacityScale(NpuId src, NpuId dst, int dim,
                                        double scale)
{
    ASTRA_USER_CHECK(scale > 0.0 && std::isfinite(scale),
                     "link capacity scale must be > 0 and finite "
                     "(take the link down for a full outage)");
    for (size_t p : faultPorts(src, dst, dim))
        txScale_[p] = scale;
}

void
AnalyticalNetwork::setLinkUp(NpuId src, NpuId dst, int dim, bool up)
{
    std::vector<size_t> ports = faultPorts(src, dst, dim);
    for (size_t p : ports)
        txUp_[p] = up ? 1 : 0;
    if (!up)
        return;
    for (size_t p : ports) {
        auto it = parked_.find(p);
        if (it == parked_.end())
            continue;
        std::vector<ParkedSend> lot = std::move(it->second);
        parked_.erase(it);
        for (ParkedSend &s : lot) {
            // Restore the send's original attribution channel around
            // the re-issue (we are inside a fault event, not a job).
            std::vector<double> *saved = sendOwner_;
            sendOwner_ = s.owner;
            simSend(s.src, s.dst, s.bytes, s.dim, s.tag,
                    std::move(s.handlers));
            sendOwner_ = saved;
        }
    }
}

TimeNs
AnalyticalNetwork::claimTxPort(size_t port, TimeNs ser)
{
    TimeNs &free_at = txFree_[port];
    ASTRA_ASSERT(ser >= 0.0, "negative serialization time %g", ser);
    TimeNs now = eq_.now();
    TimeNs start = std::max(now, free_at);
    free_at = start + ser;
    // The granted start is at/after now by construction, and the
    // chained bandwidth arithmetic keeps derived event times within
    // the shared kTimeEpsNs tolerance that EventQueue::scheduleAt
    // accepts — both sides of that contract live in common/units.h.
    ASTRA_ASSERT(timeNotBefore(start, now), "tx port granted the past");
    return start;
}

void
AnalyticalNetwork::simSend(NpuId src, NpuId dst, Bytes bytes, int dim,
                           uint64_t tag, SendHandlers handlers)
{
    ASTRA_ASSERT(bytes >= 0.0, "simSend: negative size");
    if (src == dst) {
        // Loopback: no network resources — and, like the flow and
        // packet backends, no stats accounting (the messages /
        // bytesPerDim counters track *network* traffic only, so the
        // columns stay comparable across a backend sweep axis).
        deliverLoopback(src, tag, std::move(handlers));
        return;
    }
    Route route = resolve(src, dst, dim);
    size_t port = portIndex(src, route.dim);
    if (!txUp_[port]) {
        // Down port: park the whole send *before* any accounting, so
        // the eventual re-issue through simSend accounts exactly once.
        parked_[port].push_back(ParkedSend{src, dst, bytes, dim, tag,
                                           std::move(handlers),
                                           sendOwner_});
        return;
    }
    account(route.dim, bytes);

    TimeNs ser = txTime(bytes, route.bandwidth * txScale_[port]);
    TimeNs &busy = txBusy_[port];
    busy += ser;
    accountBusy(route.dim, ser, busy);
    if (sendOwner_)
        (*sendOwner_)[static_cast<size_t>(route.dim)] += ser;
    TimeNs start = serialize_ ? claimTxPort(port, ser) : eq_.now();
    TimeNs injected_at = start + ser;
    TimeNs delivered_at = injected_at + route.latency;

    if (tracer_) {
        // Port-claim busy interval (utilization series + coalesced
        // occupancy spans) and, at full detail, the message lifetime
        // from submission to delivery on the source rank's track.
        tracer_->linkBusy(uint32_t(port), start, injected_at);
        if (tracer_->full())
            tracer_->span(0, int32_t(src), "net", "msg %lld->%lld d%lld",
                          eq_.now(), delivered_at - eq_.now(),
                          (long long)src, (long long)dst,
                          (long long)route.dim);
    }

    if (handlers.onInjected)
        eq_.scheduleAt(injected_at, std::move(handlers.onInjected));
    scheduleDelivery(delivered_at, src, dst, tag,
                     std::move(handlers.onDelivered));
}

} // namespace astra
