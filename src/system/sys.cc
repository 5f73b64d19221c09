#include "system/sys.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace astra {

Sys::Sys(NpuId npu, const SysConfig &cfg, CollectiveEngine &coll,
         const MemoryModel &mem)
    : npu_(npu), cfg_(cfg), coll_(coll), mem_(mem),
      roofline_(cfg.compute)
{
}

EventQueue &
Sys::eq()
{
    return coll_.network().eventQueue();
}

void
Sys::stallCompute(TimeNs duration)
{
    if (duration <= 0.0)
        return;
    TimeNs start = std::max(eq().now(), computeFreeAt_);
    computeFreeAt_ = start + duration;
    eq().scheduleAt(start, [this] {
        tracker_.beginActivity(Activity::Compute, eq().now());
    });
    eq().scheduleAt(start + duration, [this] {
        tracker_.endActivity(Activity::Compute, eq().now());
    });
}

void
Sys::issueCompute(Flops flops, Bytes tensor_bytes, EventCallback done)
{
    TimeNs duration =
        roofline_.computeTime(flops, tensor_bytes) * computeScale_;
    TimeNs start = std::max(eq().now(), computeFreeAt_);
    computeFreeAt_ = start + duration;
    eq().scheduleAt(start, [this] {
        tracker_.beginActivity(Activity::Compute, eq().now());
    });
    eq().scheduleAt(start + duration,
                    [this, done = std::move(done)]() mutable {
                        tracker_.endActivity(Activity::Compute, eq().now());
                        if (done)
                            done();
                    });
}

void
Sys::issueMemory(MemLocation loc, MemOp op, Bytes bytes, bool fused,
                 EventCallback done)
{
    TimeNs duration = mem_.accessTime(loc, op, bytes, fused);
    Activity activity = (loc == MemLocation::Local)
                            ? Activity::LocalMem
                            : Activity::RemoteMem;
    // In-switch collective fusion is communication performed by the
    // fabric (§IV-D.3): account it as comm so Fig. 11's "Exp. Comm"
    // component captures it.
    if (fused)
        activity = Activity::Comm;
    TimeNs start = std::max(eq().now(), memFreeAt_);
    memFreeAt_ = start + duration;
    eq().scheduleAt(start, [this, activity] {
        tracker_.beginActivity(activity, eq().now());
    });
    eq().scheduleAt(start + duration,
                    [this, activity, done = std::move(done)]() mutable {
                        tracker_.endActivity(activity, eq().now());
                        if (done)
                            done();
                    });
}

void
Sys::issueCollective(uint64_t key, CollectiveRequest req,
                     EventCallback done)
{
    if (req.chunks <= 0)
        req.chunks = cfg_.collectiveChunks;
    req.policy = cfg_.policy;
    req.serializeChunks = cfg_.serializeChunks;
    tracker_.beginActivity(Activity::Comm, eq().now());
    coll_.join(key, npu_, req,
               [this, done = std::move(done)]() mutable {
                   tracker_.endActivity(Activity::Comm, eq().now());
                   if (done)
                       done();
               });
}

void
Sys::issueSend(NpuId peer, Bytes bytes, uint64_t tag, EventCallback done)
{
    tracker_.beginActivity(Activity::Comm, eq().now());
    SendHandlers handlers;
    handlers.onInjected = [this, done = std::move(done)]() mutable {
        tracker_.endActivity(Activity::Comm, eq().now());
        if (done)
            done();
    };
    coll_.network().simSend(npu_, peer, bytes, kAutoRoute, tag,
                            std::move(handlers));
}

void
Sys::issueRecv(NpuId peer, uint64_t tag, EventCallback done)
{
    tracker_.beginActivity(Activity::Comm, eq().now());
    coll_.network().simRecv(npu_, peer, tag,
                            [this, done = std::move(done)]() mutable {
                                tracker_.endActivity(Activity::Comm,
                                                     eq().now());
                                if (done)
                                    done();
                            });
}

} // namespace astra
