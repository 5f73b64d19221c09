#include "network/network_api.h"

#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "network/analytical.h"
#include "network/detailed/packet_network.h"
#include "network/flow/flow_network.h"

namespace astra {

NetworkApi::NetworkApi(EventQueue &eq, const Topology &topo)
    : eq_(eq), topo_(topo)
{
    stats_.bytesPerDim.assign(static_cast<size_t>(topo.numDims()), 0.0);
    stats_.busyTimePerDim.assign(static_cast<size_t>(topo.numDims()),
                                 0.0);
    stats_.linksPerDim.assign(static_cast<size_t>(topo.numDims()), 0);
}

void
NetworkApi::simRecv(NpuId dst, NpuId src, uint64_t tag, EventCallback cb)
{
    PendingKey key{dst, src, tag};
    auto it = arrived_.find(key);
    if (it != arrived_.end()) {
        // Message already delivered; consume one arrival.
        if (--it->second == 0)
            arrived_.erase(it);
        // Fire asynchronously to keep callback ordering uniform.
        eq_.schedule(0.0, std::move(cb));
        return;
    }
    posted_[key].push_back(std::move(cb));
}

void
NetworkApi::simSchedule(TimeNs delay, EventCallback &&cb)
{
    eq_.schedule(delay, std::move(cb));
}

void
NetworkApi::setLinkCapacityScale(NpuId src, NpuId dst, int dim,
                                 double scale)
{
    (void)src;
    (void)dst;
    (void)dim;
    (void)scale;
    fatal("this network backend does not support link fault injection");
}

void
NetworkApi::setLinkUp(NpuId src, NpuId dst, int dim, bool up)
{
    (void)src;
    (void)dst;
    (void)dim;
    (void)up;
    fatal("this network backend does not support link fault injection");
}

size_t
NetworkApi::bytesInUse() const
{
    // std::map nodes: payload plus the three pointers + color of an
    // rb-tree node (an estimate that is still a pure function of the
    // live key set, so deterministic).
    constexpr size_t kNodeOverhead = 4 * sizeof(void *);
    size_t bytes = stats_.bytesPerDim.capacity() * sizeof(double) +
                   stats_.busyTimePerDim.capacity() * sizeof(double) +
                   stats_.linksPerDim.capacity() * sizeof(int);
    bytes += arrived_.size() *
             (sizeof(PendingKey) + sizeof(int) + kNodeOverhead);
    for (const auto &[key, cbs] : posted_) {
        (void)key;
        bytes += sizeof(PendingKey) + kNodeOverhead +
                 cbs.capacity() * sizeof(EventCallback);
    }
    return bytes;
}

std::vector<NetworkApi::PendingIo>
NetworkApi::danglingRecvs() const
{
    std::vector<PendingIo> out;
    for (const auto &[key, cbs] : posted_)
        out.push_back({key.dst, key.src, key.tag,
                       static_cast<int>(cbs.size())});
    return out;
}

std::vector<NetworkApi::PendingIo>
NetworkApi::unclaimedDeliveries() const
{
    std::vector<PendingIo> out;
    for (const auto &[key, count] : arrived_)
        out.push_back({key.dst, key.src, key.tag, count});
    return out;
}

std::string
NetworkApi::danglingSummary(size_t max_items) const
{
    auto describe = [max_items](const std::vector<PendingIo> &items,
                                std::string &out) {
        char buf[128];
        for (size_t i = 0; i < items.size(); ++i) {
            if (i == max_items) {
                std::snprintf(buf, sizeof(buf), ", ... (%zu more)",
                              items.size() - max_items);
                out += buf;
                break;
            }
            std::snprintf(buf, sizeof(buf),
                          "%sdst=%d src=%d tag=%llu x%d",
                          i == 0 ? "" : ", ", items[i].dst, items[i].src,
                          static_cast<unsigned long long>(items[i].tag),
                          items[i].count);
            out += buf;
        }
    };
    std::vector<PendingIo> recvs = danglingRecvs();
    std::vector<PendingIo> sends = unclaimedDeliveries();
    if (recvs.empty() && sends.empty())
        return "no dangling sends or recvs";
    std::string out;
    if (!recvs.empty()) {
        out += std::to_string(recvs.size()) + " dangling recv key(s) [";
        describe(recvs, out);
        out += "]";
    }
    if (!sends.empty()) {
        if (!out.empty())
            out += "; ";
        out += std::to_string(sends.size()) +
               " unclaimed delivery key(s) [";
        describe(sends, out);
        out += "]";
    }
    return out;
}

void
NetworkApi::deliver(NpuId src, NpuId dst, uint64_t tag,
                    EventCallback on_delivered)
{
    if (on_delivered)
        on_delivered();
    if (tag == kNoTag)
        return;
    PendingKey key{dst, src, tag};
    auto it = posted_.find(key);
    if (it != posted_.end()) {
        EventCallback cb = std::move(it->second.front());
        it->second.erase(it->second.begin());
        if (it->second.empty())
            posted_.erase(it);
        cb();
        return;
    }
    ++arrived_[key];
}

void
NetworkApi::deliverLoopback(NpuId src, uint64_t tag,
                            SendHandlers handlers)
{
    eq_.schedule(0.0, [this, src, tag,
                       handlers = std::move(handlers)]() mutable {
        if (handlers.onInjected)
            handlers.onInjected();
        deliver(src, src, tag, std::move(handlers.onDelivered));
    });
}

void
NetworkApi::scheduleDelivery(TimeNs at, NpuId src, NpuId dst,
                             uint64_t tag, EventCallback &&on_delivered)
{
    if (tag == kNoTag) {
        eq_.scheduleAt(at, std::move(on_delivered));
    } else {
        eq_.scheduleAt(at, [this, src, dst, tag,
                            cb = std::move(on_delivered)]() mutable {
            deliver(src, dst, tag, std::move(cb));
        });
    }
}

int
NetworkApi::accountDim(NpuId src, NpuId dst, int dim) const
{
    if (dim != kAutoRoute)
        return dim;
    for (int d = 0; d < topo_.numDims(); ++d) {
        if (topo_.coordInDim(src, d) != topo_.coordInDim(dst, d))
            return d;
    }
    return 0;
}

void
NetworkApi::account(int dim, Bytes bytes)
{
    ++stats_.messages;
    if (dim >= 0 && dim < topo_.numDims())
        stats_.bytesPerDim[static_cast<size_t>(dim)] += bytes;
}

void
NetworkApi::accountBusy(int dim, TimeNs delta, TimeNs link_total)
{
    if (dim >= 0 && dim < topo_.numDims())
        stats_.busyTimePerDim[static_cast<size_t>(dim)] += delta;
    if (link_total > stats_.maxLinkBusyNs)
        stats_.maxLinkBusyNs = link_total;
}

const char *
backendName(NetworkBackendKind kind)
{
    return kBackendNames[static_cast<size_t>(kind)];
}

std::unique_ptr<NetworkApi>
makeNetwork(NetworkBackendKind kind, EventQueue &eq, const Topology &topo)
{
    switch (kind) {
      case NetworkBackendKind::Analytical:
        return std::make_unique<AnalyticalNetwork>(eq, topo, true);
      case NetworkBackendKind::AnalyticalPure:
        return std::make_unique<AnalyticalNetwork>(eq, topo, false);
      case NetworkBackendKind::Flow:
        return std::make_unique<FlowNetwork>(eq, topo);
      case NetworkBackendKind::Packet:
        return std::make_unique<PacketNetwork>(eq, topo);
    }
    panic("unknown network backend kind");
}

} // namespace astra
