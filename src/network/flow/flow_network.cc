#include "network/flow/flow_network.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "trace/tracer.h"

namespace astra {

namespace {

/** Relative tolerance grouping near-tied link shares into one
 *  bottleneck level, so exact-ratio allocations (1/2, 1/N) come out
 *  of the solver bit-stable instead of splitting across iterations
 *  on last-bit rounding. */
constexpr double kShareTieRel = 1e-9;

/** Rates are bounded away from zero so a predicted finish is always
 *  finite (progressive filling cannot actually assign zero to a flow
 *  on links of positive capacity; this is a numerical backstop). */
constexpr GBps kMinRate = 1e-12;

/** Relative rate change that closes a flow's trace rate segment
 *  (docs/trace.md). */
constexpr double kRateEpsilon = 0.25;

} // namespace

FlowNetwork::FlowNetwork(EventQueue &eq, const Topology &topo)
    : NetworkApi(eq, topo), graph_(topo)
{
    size_t links = graph_.linkCount();
    incidence_.reset(links);
    linkBusy_.assign(links, 0.0);
    capScale_.assign(links, 1.0);
    linkUpState_.assign(links, 1);
    seedMark_.assign(links, 0);
    linkVisit_.assign(links, 0);
    fillStamp_.assign(links, 0);
    capLeft_.assign(links, 0.0);
    flowsLeft_.assign(links, 0);
    stats_.linksPerDim = graph_.linksPerDim();
}

FlowNetwork::FlowProbe
FlowNetwork::probeActiveFlow(size_t active_index) const
{
    const Flow &flow = flows_.at(active_[active_index]);
    FlowProbe probe;
    probe.src = flow.src;
    probe.dst = flow.dst;
    probe.remaining = flow.remaining;
    probe.rate = flow.rate;
    probe.lastUpdateNs = flow.lastUpdate;
    probe.predictedFinishNs = flow.predictedFinish;
    probe.epoch = flow.epoch;
    return probe;
}

void
FlowNetwork::markDirty()
{
    if (dirty_)
        return;
    dirty_ = true;
    // Deferred to the end of the current timestamp's FIFO run: any
    // number of same-time arrivals/departures trigger one solve.
    // With a tracer attached the solve is wall-clocked for the
    // per-subsystem attribution counters (solves are chunky, so
    // per-solve timing is cheap; results are unaffected).
    eq_.schedule(0.0, [this] {
        dirty_ = false;
        if (tracer_) {
            auto t0 = std::chrono::steady_clock::now();
            resolve();
            auto t1 = std::chrono::steady_clock::now();
            tracer_->counters().addWall(
                "wall_solver_seconds",
                std::chrono::duration<double>(t1 - t0).count());
        } else {
            resolve();
        }
    });
}

void
FlowNetwork::markLinksDirty(const std::vector<LinkId> &path)
{
    for (LinkId l : path) {
        if (seedMark_[l] != seedEpoch_) {
            seedMark_[l] = seedEpoch_;
            dirtySeeds_.push_back(l);
        }
    }
}

void
FlowNetwork::simSend(NpuId src, NpuId dst, Bytes bytes, int dim,
                     uint64_t tag, SendHandlers handlers)
{
    ASTRA_ASSERT(bytes >= 0.0, "simSend: negative size");
    if (src == dst) {
        // Loopback: no network resources involved.
        deliverLoopback(src, tag, std::move(handlers));
        return;
    }

    account(accountDim(src, dst, dim), bytes);

    const std::vector<LinkId> *path = graph_.pathFor(src, dst, dim);
    ASTRA_ASSERT(!path->empty(), "flow with an empty path");

    uint64_t id = flows_.claim();
    uint32_t slot = SlotPool<Flow>::slotOf(id);
    if (slot >= slotScratch_.size()) {
        // Geometric growth with the pool's high-water mark: steady
        // state (recycled slots) takes only the size check.
        slotScratch_.resize(
            std::max<size_t>(2 * slotScratch_.size(), slot + 1));
    }
    Flow &flow = flows_.get(id);
    flow.src = src;
    flow.dst = dst;
    flow.tag = tag;
    flow.path = path;
    flow.remaining = bytes;
    flow.rate = 0.0; // no bandwidth until the deferred solve runs.
    flow.lastUpdate = eq_.now();
    flow.latency = graph_.pathLatency(*path);
    flow.traceStart = eq_.now();
    flow.traceSegStart = -1.0;
    flow.traceRate = 0.0;
    flow.traceSegEmitted = false;
    flow.hasEvent = false;
    flow.active = true;
    flow.activeIdx = static_cast<uint32_t>(active_.size());
    flow.owner = sendOwner_;
    flow.handlers = std::move(handlers);
    active_.push_back(slot);
    incidence_.add(slot, SlotPool<Flow>::genOf(id), *path);
    markLinksDirty(*path);
    markDirty();
}

void
FlowNetwork::integrateFlow(Flow &flow, TimeNs t)
{
    TimeNs dt = t - flow.lastUpdate;
    if (dt > 0.0 && flow.rate > 0.0) {
        flow.remaining = std::max(0.0, flow.remaining - flow.rate * dt);
        // Busy accounting: transmitting `rate * dt` bytes keeps a
        // link of bandwidth B busy for `rate * dt / B` ns.
        for (LinkId l : *flow.path) {
            const LinkGraph::Link &link = graph_.link(l);
            TimeNs busy = flow.rate * dt / link.bandwidth;
            linkBusy_[l] += busy;
            accountBusy(link.dim, busy, linkBusy_[l]);
            if (flow.owner)
                (*flow.owner)[static_cast<size_t>(link.dim)] += busy;
        }
        if (tracer_) {
            // A lazy integration stretch is one constant-rate segment
            // of the flow: feed link busy time (series, totals) with
            // the fractional busy share per link, and at full detail
            // grow the coalesced rate segment on the source's flow
            // track. Stretches within kRateEpsilon (25%, relative) of
            // the open segment's rate extend it rather than emit —
            // max-min churn re-rates whole components constantly, and
            // one event per re-rate would double the trace for no
            // visual gain; small rate wiggles are invisible on a
            // timeline (docs/trace.md).
            if (tracer_->readsLinkBusy())
                for (LinkId l : *flow.path)
                    tracer_->linkBusy(
                        l, flow.lastUpdate, t,
                        flow.rate / graph_.link(l).bandwidth);
            if (tracer_->full()) {
                if (flow.traceSegStart < 0.0) {
                    flow.traceSegStart = flow.lastUpdate;
                    flow.traceRate = flow.rate;
                } else if (std::abs(flow.rate - flow.traceRate) >
                           kRateEpsilon * flow.traceRate) {
                    flushRateSegment(flow, flow.lastUpdate);
                    flow.traceSegStart = flow.lastUpdate;
                    flow.traceRate = flow.rate;
                }
            }
        }
    }
    flow.lastUpdate = t;
}

void
FlowNetwork::flushRateSegment(Flow &flow, TimeNs end)
{
    if (flow.traceSegStart < 0.0 || end <= flow.traceSegStart)
        return;
    tracer_->span(0, trace::Tracer::kFlowTidBase + int32_t(flow.src),
                  "flow", "f%lld->%lld %lldMB/s", flow.traceSegStart,
                  end - flow.traceSegStart, (long long)flow.src,
                  (long long)flow.dst,
                  (long long)(flow.traceRate * 1000.0));
    flow.traceSegStart = -1.0;
    flow.traceSegEmitted = true;
}

void
FlowNetwork::scanLink(LinkId l, uint64_t epoch,
                      std::vector<uint32_t> *out)
{
    // One pass does double duty: collect unvisited live members into
    // the BFS queue and compact stale (departed / recycled) entries
    // away in place — incidence removal is a generation bump, and the
    // links a departure dirtied are exactly the ones scanned here at
    // the very next solve.
    std::vector<LinkIncidence::Entry> &list = incidence_.entriesOn(l);
    size_t kept = 0;
    for (size_t i = 0; i < list.size(); ++i) {
        const LinkIncidence::Entry e = list[i];
        if (flows_.genAt(e.member) != e.gen)
            continue; // stale (departed / recycled): compact away.
        if (kept != i)
            list[kept] = e; // only dirty the list when compacting.
        ++kept;
        if (slotScratch_[e.member].visit != epoch) {
            slotScratch_[e.member].visit = epoch;
            out->push_back(e.member);
        }
    }
    list.resize(kept);
}

void
FlowNetwork::collectComponent(LinkId seed, uint64_t epoch,
                              std::vector<uint32_t> *out)
{
    out->clear();
    if (linkVisit_[seed] == epoch)
        return;
    linkVisit_[seed] = epoch;
    scanLink(seed, epoch, out);
    // `out` is the BFS queue: every flow reached pulls in all links of
    // its path, and every new link pulls in all flows crossing it.
    for (size_t head = 0; head < out->size(); ++head) {
        const Flow &flow = flows_.at((*out)[head]);
        for (LinkId l : *flow.path) {
            if (linkVisit_[l] == epoch)
                continue;
            linkVisit_[l] = epoch;
            scanLink(l, epoch, out);
        }
    }
}

void
FlowNetwork::fillComponent(const std::vector<uint32_t> &comp,
                           uint64_t epoch, double SlotScratch::*out)
{
    // Progressive filling (water-filling): repeatedly find the link
    // with the smallest fair share capacity/flows, freeze every flow
    // crossing such a bottleneck at that share, withdraw the frozen
    // bandwidth, and continue with the rest. The fixpoint is the
    // unique max-min fair allocation. Iteration order over `comp` is
    // canonical (sorted by slot), so the arithmetic — and therefore
    // the last bit of every rate — is independent of how the
    // component was discovered (incremental seed walk or full solve).
    ++fillEpoch_;
    touched_.clear();
    for (uint32_t slot : comp) {
        for (LinkId l : *flows_.at(slot).path) {
            if (fillStamp_[l] != fillEpoch_) {
                fillStamp_[l] = fillEpoch_;
                // Faults enter the solver only here: a degraded link
                // fills with scaled capacity, a down link with zero.
                double cap = linkUpState_[l]
                                 ? graph_.link(l).bandwidth * capScale_[l]
                                 : 0.0;
                // Bandwidth pinned by flows outside the component
                // would be withdrawn here — but under full transitive
                // closure no such flow can exist (any member of a
                // component link is swept into the component by the
                // BFS), so the subtraction is provably zero and the
                // hot path skips the membership scan. The verify pass
                // asserts the invariant instead of trusting it.
                if (fullSolveVerify_) {
                    for (const LinkIncidence::Entry &e :
                         incidence_.entriesOn(l)) {
                        ASTRA_ASSERT(
                            flows_.genAt(e.member) != e.gen ||
                                slotScratch_[e.member].visit == epoch,
                            "component link carries a flow outside "
                            "the component");
                    }
                }
                capLeft_[l] = cap;
                flowsLeft_[l] = 0;
                touched_.push_back(l);
            }
            ++flowsLeft_[l];
        }
    }

    unfixed_.assign(comp.begin(), comp.end());
    while (!unfixed_.empty()) {
        double min_share = std::numeric_limits<double>::infinity();
        for (uint32_t l : touched_) {
            if (flowsLeft_[l] > 0) {
                double share =
                    std::max(capLeft_[l], 0.0) / double(flowsLeft_[l]);
                min_share = std::min(min_share, share);
            }
        }
        ASTRA_ASSERT(min_share <
                         std::numeric_limits<double>::infinity(),
                     "unfixed flow crosses no counted link");
        double tie_limit = min_share + min_share * kShareTieRel;

        size_t kept = 0;
        for (uint32_t slot : unfixed_) {
            const Flow &flow = flows_.at(slot);
            bool bottlenecked = false;
            for (LinkId l : *flow.path) {
                if (flowsLeft_[l] > 0 &&
                    std::max(capLeft_[l], 0.0) / double(flowsLeft_[l]) <=
                        tie_limit) {
                    bottlenecked = true;
                    break;
                }
            }
            if (bottlenecked) {
                double rate = std::max(min_share, kMinRate);
                // Distinguish a structurally dead link (capacity is
                // exactly zero: administratively down) from capLeft
                // rounding to zero on a healthy link — only the former
                // stalls the flow; the latter keeps the kMinRate
                // numerical backstop.
                if (min_share <= 0.0 && crossesDeadLink(flow))
                    rate = 0.0;
                slotScratch_[slot].*out = rate;
                for (LinkId l : *flow.path) {
                    capLeft_[l] -= min_share;
                    --flowsLeft_[l];
                }
            } else {
                unfixed_[kept++] = slot;
            }
        }
        ASTRA_ASSERT(kept < unfixed_.size(),
                     "max-min filling made no progress");
        unfixed_.resize(kept);
    }
}

void
FlowNetwork::resolve()
{
    // Drain the seed set even when nothing is left to rate: links
    // dirtied by the last departures matter only to flows that exist.
    if (active_.empty()) {
        dirtySeeds_.clear();
        ++seedEpoch_;
        return;
    }
    ++solver_.solves;

    // Phase 1 — affected components: BFS from each dirty link over
    // the incidence lists. Flows transitively sharing a link with a
    // changed flow are re-rated; everything else is provably at its
    // max-min fixpoint already and is not even looked at.
    ++visitEpoch_;
    uint64_t epoch = visitEpoch_;
    affected_.clear();
    bool multi = false;
    for (LinkId seed : dirtySeeds_) {
        // Single-component solves (the common case: one region went
        // dirty) collect straight into `affected_` and skip the
        // merge copy + re-sort below.
        std::vector<uint32_t> *dst =
            affected_.empty() ? &affected_ : &comp_;
        collectComponent(seed, epoch, dst);
        if (dst->empty())
            continue; // already swept, or the seed link went idle.
        std::sort(dst->begin(), dst->end());
        fillComponent(*dst, epoch, &SlotScratch::newRate);
        ++solver_.componentsTouched;
        if (dst == &comp_) {
            affected_.insert(affected_.end(), comp_.begin(),
                             comp_.end());
            multi = true;
        }
    }
    dirtySeeds_.clear();
    ++seedEpoch_;

    solver_.flowsTouched += affected_.size();
    solver_.componentFracSum +=
        double(affected_.size()) / double(active_.size());
    for (uint32_t slot : affected_)
        slotScratch_[slot].affectedMark = solver_.solves;

    if (fullSolveVerify_)
        verifyFullSolve();

    // Phase 2 — apply, in canonical slot order across components so
    // same-timestamp completion events enqueue identically no matter
    // how the components were discovered. A flow whose re-filled rate
    // is bit-equal keeps its event and is NOT integrated: its stored
    // (lastUpdate, remaining, rate, predictedFinish) tuple is still
    // exact under a constant rate.
    if (multi)
        std::sort(affected_.begin(), affected_.end());
    TimeNs now = eq_.now();
    for (uint32_t slot : affected_) {
        Flow &flow = flows_.at(slot);
        double new_rate = slotScratch_[slot].newRate;
        if (new_rate == flow.rate)
            continue;
        integrateFlow(flow, now); // lazy: settle only on rate change.
        flow.rate = new_rate;
        ++flow.epoch; // supersedes any event scheduled for the old rate.
        if (new_rate <= 0.0) {
            // Stalled on a down link: no completion event at all — a
            // far-future placeholder would still fire during the final
            // queue drain and distort the finish time. The flow
            // resumes when a link-up re-solve assigns a positive rate.
            flow.hasEvent = false;
            continue;
        }
        TimeNs finish = now + flow.remaining / flow.rate;
        flow.predictedFinish = std::max(finish, now);
        flow.hasEvent = true;
        uint64_t id = flows_.idAt(slot);
        uint32_t flow_epoch = flow.epoch;
        // [this, id, epoch]: inline in InlineEvent — re-rating never
        // allocates; superseded events are dropped by the epoch check.
        eq_.scheduleAt(flow.predictedFinish, [this, id, flow_epoch] {
            onCompletion(id, flow_epoch);
        });
    }
}

void
FlowNetwork::verifyFullSolve()
{
    // Re-run the fill over EVERY active flow (per connected component,
    // canonical order — identical arithmetic to an incremental fill of
    // the same component) and demand bit-exact agreement with the
    // incremental result. `affectedMark_` still holds this solve's
    // affected stamps; the walk below uses a fresh visit epoch.
    ++visitEpoch_;
    uint64_t epoch = visitEpoch_;
    for (LinkId l = 0; l < graph_.linkCount(); ++l) {
        if (incidence_.entryCount(l) == 0 || linkVisit_[l] == epoch)
            continue;
        collectComponent(l, epoch, &comp_);
        if (comp_.empty())
            continue;
        std::sort(comp_.begin(), comp_.end());
        fillComponent(comp_, epoch, &SlotScratch::verifyRate);
        for (uint32_t slot : comp_) {
            const Flow &flow = flows_.at(slot);
            const SlotScratch &scratch = slotScratch_[slot];
            if (scratch.affectedMark == solver_.solves) {
                ASTRA_ASSERT(scratch.verifyRate == scratch.newRate,
                             "full-solve verify: incremental rate of an "
                             "affected flow diverges from the full "
                             "max-min solution");
            } else {
                ASTRA_ASSERT(scratch.verifyRate == flow.rate,
                             "full-solve verify: a flow outside the "
                             "affected component would change rate");
                ASTRA_ASSERT(flow.rate > 0.0 || crossesDeadLink(flow),
                             "full-solve verify: unaffected flow was "
                             "never rated");
                ASTRA_ASSERT(
                    !flow.hasEvent ||
                        flow.predictedFinish ==
                            std::max(flow.lastUpdate +
                                         flow.remaining / flow.rate,
                                     flow.lastUpdate),
                    "full-solve verify: unaffected flow's completion "
                    "prediction is stale");
            }
        }
    }
}

bool
FlowNetwork::crossesDeadLink(const Flow &flow) const
{
    for (LinkId l : *flow.path)
        if (!linkUpState_[l])
            return true;
    return false;
}

void
FlowNetwork::setLinkCapacityScale(NpuId src, NpuId dst, int dim,
                                  double scale)
{
    ASTRA_USER_CHECK(scale > 0.0 && std::isfinite(scale),
                     "link capacity scale must be > 0 and finite "
                     "(take the link down for a full outage)");
    std::vector<LinkId> links = graph_.faultLinks(src, dst, dim);
    for (LinkId l : links)
        capScale_[l] = scale;
    markLinksDirty(links);
    markDirty();
}

void
FlowNetwork::setLinkUp(NpuId src, NpuId dst, int dim, bool up)
{
    std::vector<LinkId> links = graph_.faultLinks(src, dst, dim);
    for (LinkId l : links)
        linkUpState_[l] = up ? 1 : 0;
    markLinksDirty(links);
    markDirty();
}

void
FlowNetwork::setTracer(trace::Tracer *tracer)
{
    NetworkApi::setTracer(tracer);
    if (!tracer)
        return;
    for (LinkId l = 0; l < graph_.linkCount(); ++l) {
        const LinkGraph::Link &link = graph_.link(l);
        tracer->registerLink(l, detail::formatV("d%d %d->%d", link.dim,
                                                link.from, link.to));
    }
}

void
FlowNetwork::fillTraceCounters(trace::Counters &counters) const
{
    counters.add("solver_solves", double(solver_.solves));
    counters.add("solver_flows_touched", double(solver_.flowsTouched));
    counters.add("solver_components_touched",
                 double(solver_.componentsTouched));
    counters.add("solver_avg_component_frac",
                 solver_.avgComponentFrac());
}

size_t
FlowNetwork::bytesInUse() const
{
    return NetworkApi::bytesInUse() + graph_.bytesInUse() +
           flows_.bytesInUse() + incidence_.bytesInUse() +
           active_.capacity() * sizeof(uint32_t) +
           linkBusy_.capacity() * sizeof(TimeNs) +
           capScale_.capacity() * sizeof(double) +
           linkUpState_.capacity() * sizeof(uint8_t) +
           dirtySeeds_.capacity() * sizeof(LinkId) +
           seedMark_.capacity() * sizeof(uint64_t) +
           linkVisit_.capacity() * sizeof(uint64_t) +
           slotScratch_.capacity() * sizeof(SlotScratch) +
           comp_.capacity() * sizeof(uint32_t) +
           affected_.capacity() * sizeof(uint32_t) +
           fillStamp_.capacity() * sizeof(uint64_t) +
           touched_.capacity() * sizeof(uint32_t) +
           capLeft_.capacity() * sizeof(double) +
           flowsLeft_.capacity() * sizeof(int) +
           unfixed_.capacity() * sizeof(uint32_t);
}

void
FlowNetwork::onCompletion(uint64_t id, uint32_t epoch)
{
    Flow *found = flows_.find(id);
    if (found == nullptr || !found->active || found->epoch != epoch)
        return; // superseded by a later re-rate (or recycled slot).
    Flow &flow = *found;

    // Settle this flow to its finish instant; its residual is last-bit
    // rounding of the integration chain. Other flows stay lazy — their
    // state is exact until the deferred solve changes their rate.
    integrateFlow(flow, eq_.now());
    flow.remaining = 0.0;

    // No incidence removal: releasing the slot below advances its
    // generation, which invalidates every incidence entry at once;
    // the dirtied links are compacted by the next solve's scan.
    markLinksDirty(*flow.path); // freed bandwidth redistributes.

    // Swap-remove from the active list (deterministic: the order is a
    // pure function of the event sequence).
    uint32_t last = active_.back();
    active_[flow.activeIdx] = last;
    flows_.at(last).activeIdx = flow.activeIdx;
    active_.pop_back();
    flow.active = false;
    markDirty();

    // Transmission done now; delivery after the path's hop latency.
    NpuId src = flow.src;
    NpuId dst = flow.dst;
    uint64_t tag = flow.tag;
    TimeNs delivered_at = eq_.now() + flow.latency;
    if (tracer_ && tracer_->full()) {
        // The closing segment is only interesting for flows whose
        // rate actually changed; for the rest the message span below
        // already describes one constant-rate transmission.
        if (flow.traceSegEmitted)
            flushRateSegment(flow, eq_.now());
        tracer_->span(0, int32_t(src), "net", "flow %lld->%lld d%d",
                      flow.traceStart, delivered_at - flow.traceStart,
                      (long long)src, (long long)dst,
                      graph_.link((*flow.path)[0]).dim);
    }
    SendHandlers handlers = std::move(flow.handlers);
    flow.handlers = SendHandlers{};
    flow.path = nullptr;
    flows_.release(id); // the handlers may send again and reuse the slot.

    if (handlers.onInjected)
        handlers.onInjected();
    // Even a null kNoTag callback schedules, so final-time semantics
    // include the trailing latency exactly like the other backends.
    scheduleDelivery(delivered_at, src, dst, tag,
                     std::move(handlers.onDelivered));
}

} // namespace astra
