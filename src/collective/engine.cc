#include "collective/engine.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/logging.h"
#include "trace/tracer.h"

namespace astra {

CollectiveEngine::CollectiveEngine(NetworkApi &net)
    : net_(net), topo_(net.topology()), scheduler_(net.topology())
{
    sent_.assign(static_cast<size_t>(topo_.numDims()), 0.0);
}

NpuId
CollectiveEngine::groupBase(NpuId npu,
                            const std::vector<GroupDim> &groups) const
{
    NpuId base = npu;
    for (const GroupDim &g : groups)
        base = topo_.zeroGroup(base, g);
    return base;
}

int
CollectiveEngine::rankOf(const Instance &inst, NpuId npu) const
{
    int rank = 0;
    int mult = 1;
    for (const GroupDim &g : inst.groups) {
        rank += topo_.posInGroup(npu, g) * mult;
        mult *= g.size;
    }
    return rank;
}

uint64_t
CollectiveEngine::allocInstance()
{
    uint64_t id = instances_.claim();
    instances_.get(id).id = id;
    return id;
}

CollectiveEngine::Instance *
CollectiveEngine::findInstance(uint64_t id)
{
    return instances_.find(id);
}

void
CollectiveEngine::releaseInstance(Instance &inst)
{
    ++completedInstances_;
    if (tracer_ && inst.traceSpan != trace::Tracer::kNoSpan) {
        tracer_->endSpan(inst.traceSpan, net_.now());
        inst.traceSpan = trace::Tracer::kNoSpan;
    }
    uint64_t id = inst.id;
    inst.id = 0;
    // Clears keep the capacities alive for the next instance in this
    // slot — SlotPool recycles the object in place.
    inst.phases.clear();
    inst.phaseStart.clear();
    inst.phaseMult.clear();
    instances_.release(id);
}

size_t
CollectiveEngine::bytesInUse() const
{
    constexpr size_t kHashNode = sizeof(void *);
    size_t bytes = instances_.bytesInUse() +
                   sent_.capacity() * sizeof(double) +
                   kickScratch_.capacity() * sizeof(int);
    bytes += rendezvous_.bucket_count() * sizeof(void *) +
             rendezvous_.size() *
                 (sizeof(RendezvousKey) + sizeof(uint64_t) + kHashNode);
    // Per-instance vectors survive recycling (releaseInstance clears,
    // never shrinks), so walk every slot — live or free.
    for (uint32_t s = 0; s < instances_.slots(); ++s) {
        const Instance &inst = instances_.at(s);
        bytes += inst.groups.capacity() * sizeof(GroupDim) +
                 inst.npuOfRank.capacity() * sizeof(NpuId) +
                 inst.phases.capacity() * sizeof(Phase) +
                 inst.phaseStart.capacity() * sizeof(uint32_t) +
                 inst.phaseMult.capacity() * sizeof(int) +
                 inst.members.capacity() * sizeof(MemberState) +
                 inst.chunkStates.capacity() * sizeof(ChunkState) +
                 inst.early.capacity() * sizeof(int);
    }
    return bytes;
}

void
CollectiveEngine::join(uint64_t key, NpuId npu, const CollectiveRequest &req,
                       EventCallback on_complete)
{
    ASTRA_ASSERT(!cancelled_,
                 "join on a cancelled collective engine (the workload "
                 "engine of an abandoned incarnation must be cancelled "
                 "first)");
    ASTRA_USER_CHECK(req.bytes >= 0.0, "collective with negative size");
    ASTRA_USER_CHECK(req.chunks >= 1, "collective needs chunks >= 1");

    std::vector<GroupDim> groups = normalizedGroups(topo_, req);

    NpuId base = groupBase(npu, groups);
    auto [it, inserted] =
        rendezvous_.try_emplace(RendezvousKey{key, base}, 0);
    if (inserted) {
        it->second = allocInstance();
        Instance &created = *findInstance(it->second);
        created.req = req;
        created.groups = std::move(groups);
        created.groupSize = 1;
        for (const GroupDim &g : created.groups)
            created.groupSize *= g.size;
        created.joinedMembers = 0;
        created.completedMembers = 0;
        created.members.resize(static_cast<size_t>(created.groupSize));
        for (MemberState &m : created.members) {
            m.joined = false;
            m.chunksDone = 0;
        }
        created.npuOfRank.assign(static_cast<size_t>(created.groupSize),
                                 -1);
    }
    Instance &inst = *findInstance(it->second);

    size_t rank = static_cast<size_t>(rankOf(inst, npu));
    MemberState &member = inst.members[rank];
    ASTRA_ASSERT(!member.joined, "NPU %d joined collective %llu twice",
                 npu, static_cast<unsigned long long>(key));
    member.joined = true;
    member.onComplete = std::move(on_complete);
    inst.npuOfRank[rank] = npu;

    if (++inst.joinedMembers == inst.groupSize) {
        // Last member arrived: the group is synchronized; release the
        // rendezvous key (allowing the same key to be reused) and go.
        rendezvous_.erase(it);
        start(inst);
    }
}

void
CollectiveEngine::start(Instance &inst)
{
    // Build per-chunk phase lists. The scheduler picks each chunk's
    // group order (computed once, so all members' state machines stay
    // consistent).
    Bytes chunk_bytes = inst.req.bytes / double(inst.req.chunks);
    inst.phaseStart.push_back(0);
    for (int c = 0; c < inst.req.chunks; ++c) {
        std::vector<GroupDim> order = scheduler_.nextOrder(
            inst.groups, inst.req.type, chunk_bytes, inst.req.policy);
        std::vector<Phase> phases =
            buildPhases(topo_, inst.req.type, chunk_bytes, order);
        inst.phases.insert(inst.phases.end(), phases.begin(), phases.end());
        inst.phaseStart.push_back(static_cast<uint32_t>(inst.phases.size()));
    }

    // Each phase's rank-space multiplier: the radix weight of its group
    // factor within `groups`.
    for (const Phase &ph : inst.phases) {
        int mult = 1;
        bool found = false;
        for (const GroupDim &g : inst.groups) {
            if (g.dim == ph.group.dim && g.size == ph.group.size &&
                g.stride == ph.group.stride) {
                found = true;
                break;
            }
            mult *= g.size;
        }
        ASTRA_ASSERT(found, "phase group is not an instance factor");
        inst.phaseMult.push_back(mult);
    }

    size_t members = static_cast<size_t>(inst.groupSize);
    inst.chunkStates.assign(members * static_cast<size_t>(inst.req.chunks),
                            ChunkState{});
    inst.early.assign(members * inst.phases.size(), 0);

    uint64_t ordinal = startedInstances_++;
    if (tracer_) {
        // The " #<ordinal>" suffix gives instance spans a stable
        // identity for cross-run alignment: SlotPool track slots are
        // reused in backend-timing order, but the issue order of
        // collectives is a property of the workload alone.
        inst.traceSpan = tracer_->beginSpan(
            tracePid_,
            trace::Tracer::kCollTidBase +
                static_cast<int32_t>(SlotPool<Instance>::slotOf(inst.id)),
            "coll",
            detail::formatV("%s %.0fB x%d chunks=%d #%llu",
                            collectiveName(inst.req.type), inst.req.bytes,
                            inst.groupSize, inst.req.chunks,
                            static_cast<unsigned long long>(ordinal)),
            net_.now());
    } else {
        inst.traceSpan = trace::Tracer::kNoSpan;
    }

    // Kick every (member, chunk) state machine in ascending NPU-id
    // order. Chunks all enter their first phase now; pipelining across
    // phases emerges from transmit port serialization in the backend.
    uint64_t id = inst.id;
    kickScratch_.resize(inst.npuOfRank.size());
    for (size_t r = 0; r < kickScratch_.size(); ++r)
        kickScratch_[r] = static_cast<int>(r);
    std::sort(kickScratch_.begin(), kickScratch_.end(),
              [&inst](int a, int b) {
                  return inst.npuOfRank[static_cast<size_t>(a)] <
                         inst.npuOfRank[static_cast<size_t>(b)];
              });
    int kick = inst.req.serializeChunks ? 1 : inst.req.chunks;
    for (int rank : kickScratch_) {
        for (int c = 0; c < kick; ++c) {
            Instance *live = findInstance(id);
            if (live == nullptr)
                return; // degenerate instance completed synchronously.
            advance(*live, rank, c);
        }
    }
}

int
CollectiveEngine::expectedRecvs(const Phase &ph)
{
    return ph.algorithm == PhaseAlgorithm::HalvingDoubling
               ? phaseSteps(ph)
               : ph.group.size - 1;
}

void
CollectiveEngine::advance(Instance &inst, int rank, int chunk)
{
    MemberState &member = inst.members[static_cast<size_t>(rank)];
    ChunkState &st = inst.state(rank, chunk);
    st.started = true;
    const uint32_t first = inst.phaseStart[static_cast<size_t>(chunk)];
    const uint32_t end = inst.phaseStart[static_cast<size_t>(chunk) + 1];

    if (st.phase == end - first) {
        ++member.chunksDone;
        if (inst.req.serializeChunks &&
            member.chunksDone < inst.req.chunks) {
            // Conservative scheduler: the member's next chunk enters
            // the pipeline only now.
            advance(inst, rank, member.chunksDone);
            return;
        }
        if (member.chunksDone == inst.req.chunks) {
            if (member.onComplete) {
                // Deferred through the queue: the callback may join the
                // NPU to its next collective, which would otherwise
                // mutate the instance table under our feet.
                net_.simSchedule(0.0, std::move(member.onComplete));
            }
            ++inst.completedMembers;
            if (inst.completedMembers == inst.groupSize)
                releaseInstance(inst);
        }
        return;
    }
    // Everything the phase's messages need that depends only on the
    // member and the phase is fixed here, once per phase entry.
    const size_t flat = first + st.phase;
    st.ph = &inst.phases[flat];
    st.mult = inst.phaseMult[flat];
    st.pos = (rank / st.mult) % st.ph->group.size;
    st.expect = expectedRecvs(*st.ph);
    st.sent = 0;
    st.recvd = inst.earlyCount(rank, chunk, st.phase);
    if (tracer_ && tracer_->full())
        st.phaseEnteredAt = net_.now();
    pump(inst, rank, chunk);
}

void
CollectiveEngine::pump(Instance &inst, int rank, int chunk)
{
    ChunkState &st = inst.state(rank, chunk);
    // Ring and Halving-Doubling: step s may go out once step s-1's
    // message has arrived. Direct is one-shot: fire all peer messages;
    // the transmit port serializes them at the dimension's aggregate
    // bandwidth.
    const bool stepped = st.ph->algorithm != PhaseAlgorithm::Direct;
    while (st.sent < st.expect && (!stepped || st.sent <= st.recvd)) {
        sendStep(inst, rank, chunk, st, st.sent);
        ++st.sent;
    }

    if (st.recvd == st.expect && st.sent == st.expect) {
        if (tracer_ && tracer_->full())
            tracer_->span(tracePid_,
                          inst.npuOfRank[static_cast<size_t>(rank)],
                          "coll", "c%lld p%lld d%lld", st.phaseEnteredAt,
                          net_.now() - st.phaseEnteredAt,
                          static_cast<long long>(chunk),
                          static_cast<long long>(st.phase),
                          static_cast<long long>(st.ph->group.dim));
        ++st.phase;
        advance(inst, rank, chunk);
    }
}

void
CollectiveEngine::sendStep(Instance &inst, int rank, int chunk,
                           const ChunkState &st, int step)
{
    const Phase &ph = *st.ph;
    const int k = ph.group.size;
    const int pos = st.pos;
    int peer_pos = pos;
    Bytes bytes = 0.0;

    switch (ph.algorithm) {
      case PhaseAlgorithm::Ring:
        peer_pos = pos + 1 == k ? 0 : pos + 1;
        bytes = ph.tensorBytes / double(k);
        break;
      case PhaseAlgorithm::Direct:
        peer_pos = (pos + step + 1) % k;
        bytes = ph.tensorBytes / double(k);
        break;
      case PhaseAlgorithm::HalvingDoubling:
        if (ph.op == PhaseOp::AllGather) {
            // Recursive doubling: distances 1, 2, ..., k/2 with
            // message sizes tensor/k, 2*tensor/k, ..., tensor/2.
            peer_pos = pos ^ (1 << step);
            bytes = ph.tensorBytes * double(1 << step) / double(k);
        } else {
            // Recursive halving: distances k/2, ..., 1 with message
            // sizes tensor/2, tensor/4, ..., tensor/k.
            peer_pos = pos ^ (k >> (step + 1));
            bytes = ph.tensorBytes / double(2 << step);
        }
        break;
    }

    int dst_rank = rank + (peer_pos - pos) * st.mult;
    NpuId src = inst.npuOfRank[static_cast<size_t>(rank)];
    NpuId dst = inst.npuOfRank[static_cast<size_t>(dst_rank)];

    sent_[static_cast<size_t>(ph.group.dim)] += bytes;
    uint64_t inst_id = inst.id;
    uint32_t phase_idx = st.phase;
    // [this, id, 3 ints]: fits InlineEvent's inline buffer, so the
    // per-message delivery closure never allocates; capturing the
    // destination *rank* makes delivery a pure array walk.
    net_.simSend(src, dst, bytes, ph.group.dim, kNoTag,
                 SendHandlers{nullptr,
                              [this, inst_id, dst_rank, chunk, phase_idx]() {
                                  onMessage(inst_id, dst_rank, chunk,
                                            phase_idx);
                              }});
}

void
CollectiveEngine::onMessage(uint64_t inst_id, int rank, int chunk,
                            uint32_t phase_idx)
{
    if (cancelled_)
        return; // abandoned incarnation: drop, don't pump.
    Instance *found = findInstance(inst_id);
    ASTRA_ASSERT(found != nullptr,
                 "message for retired collective instance");
    Instance &inst = *found;
    ChunkState &st = inst.state(rank, chunk);
    if (!st.started || phase_idx != st.phase) {
        // The sender's rail ran ahead of this member (possibly into a
        // chunk this member has not opened yet under serialized
        // chunking); hold the message until the member enters that
        // phase.
        ASTRA_ASSERT(!st.started || phase_idx > st.phase,
                     "collective message for an already-finished phase");
        ++inst.earlyCount(rank, chunk, phase_idx);
        return;
    }
    ++st.recvd;
    pump(inst, rank, chunk);
}

CollectiveRunResult
runCollective(CollectiveEngine &engine, const CollectiveRequest &req)
{
    // Atomic so concurrent standalone runs on worker threads (sweep
    // batches, parallel benches) never share a rendezvous key.
    static std::atomic<uint64_t> run_key{0xC011EC71FE000000ULL};
    uint64_t key = ++run_key;

    NetworkApi &net = engine.network();
    const Topology &topo = net.topology();
    std::vector<double> sent_before = engine.sentBytesPerDim();

    CollectiveRunResult result;
    int remaining = topo.npus();
    for (NpuId npu = 0; npu < topo.npus(); ++npu) {
        engine.join(key, npu, req, [&result, &net, &remaining]() {
            --remaining;
            result.finish = std::max(result.finish, net.now());
        });
    }
    net.eventQueue().run();
    ASTRA_ASSERT(remaining == 0, "collective did not complete (%d left)",
                 remaining);

    result.sentPerDim = engine.sentBytesPerDim();
    for (size_t d = 0; d < result.sentPerDim.size(); ++d)
        result.sentPerDim[d] -= sent_before[d];
    return result;
}

} // namespace astra
