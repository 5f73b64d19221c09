/**
 * @file
 * ClusterSimulator's failure-resilience machinery (docs/fault.md):
 * failure domains and the spare pool, fault-injector hooks (NPU
 * fail/recover, domain failures, stragglers), checkpoint timers,
 * job rollback and the restart modes, and the resilience aggregates.
 */
#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "cluster/job_runtime.h"
#include "common/logging.h"

namespace astra {
namespace cluster {

void
ClusterSimulator::startResilience()
{
    if (cfg_.fault && !cfg_.fault->domains.empty()) {
        domains_ = fault::resolveDomains(*cfg_.fault, topo_);
        domainsOfNpu_.assign(static_cast<size_t>(topo_.npus()), {});
        for (size_t d = 0; d < domains_.size(); ++d)
            for (NpuId id : domains_[d].npus)
                domainsOfNpu_[static_cast<size_t>(id)].push_back(
                    static_cast<int>(d));
    }

    // Spare pool (docs/fault.md "Spare-capacity restart"): reserved
    // before any admission so placements can never straddle it.
    ASTRA_USER_CHECK(cfg_.spareCount <= 0 || cfg_.spareDomain.empty(),
                     "cluster.spares: set a count or a domain name, "
                     "not both");
    std::vector<NpuId> spares;
    if (!cfg_.spareDomain.empty()) {
        const fault::FailureDomain *dom = nullptr;
        for (const fault::FailureDomain &d : domains_)
            if (d.name == cfg_.spareDomain)
                dom = &d;
        ASTRA_USER_CHECK(dom != nullptr,
                         "cluster.spares: unknown failure domain '%s' "
                         "(declare it under fault.domains)",
                         cfg_.spareDomain.c_str());
        spares = dom->npus;
    } else if (cfg_.spareCount > 0) {
        ASTRA_USER_CHECK(cfg_.spareCount < topo_.npus(),
                         "cluster.spares: %d spares leave no NPUs to "
                         "place on (cluster has %d)",
                         cfg_.spareCount, topo_.npus());
        for (int i = 0; i < cfg_.spareCount; ++i)
            spares.push_back(topo_.npus() - cfg_.spareCount + i);
    }
    if (!spares.empty()) {
        placer_.reserveSpares(spares);
        initialSpareCount_ = static_cast<int>(spares.size());
        spareClaimedAt_.assign(static_cast<size_t>(topo_.npus()), -1.0);
    }

    fault::FaultHooks hooks;
    hooks.computeScale = [this](NpuId g, double s) { onStraggler(g, s); };
    hooks.npuFail = [this](const fault::FaultEvent &e) { onNpuFail(e); };
    hooks.npuRecover = [this](const fault::FaultEvent &e) {
        onNpuRecover(e);
    };
    hooks.domainFail = [this](const fault::FaultEvent &e) {
        onDomainFail(e);
    };
    hooks.active = [this] { return !allSettled(); };
    harness_.startFaults(std::move(hooks));
}

void
ClusterSimulator::finishResilience(ClusterReport &report)
{
    // All stay 0 (and are elided from serialized reports) on
    // fault-free runs.
    uint64_t incidents = 0;
    for (uint8_t f : incidentFired_)
        incidents += f;
    if (incidents > 0)
        report.blastRadius = double(disruptions_) / double(incidents);
    if (!recoveryGaps_.empty()) {
        std::vector<TimeNs> gaps = recoveryGaps_;
        std::sort(gaps.begin(), gaps.end());
        auto rank = [&gaps](double p) { // nearest-rank percentile.
            size_t idx = static_cast<size_t>(
                std::ceil(p * double(gaps.size())));
            return gaps[idx > 0 ? idx - 1 : 0];
        };
        report.recoveryP50 = rank(0.50);
        report.recoveryP95 = rank(0.95);
    }
    if (initialSpareCount_ > 0 && report.makespan > 0.0) {
        // Spares still held at the end accrue to the makespan.
        for (size_t id = 0; id < spareClaimedAt_.size(); ++id)
            if (spareClaimedAt_[id] >= 0.0) {
                spareBusyNs_ += std::max(
                    0.0, report.makespan - spareClaimedAt_[id]);
                spareClaimedAt_[id] = -1.0;
            }
        report.spareUtilization =
            spareBusyNs_ /
            (double(initialSpareCount_) * report.makespan);
    }
    Report &agg = report.aggregate;
    agg.blastRadius = report.blastRadius;
    agg.spareUtilization = report.spareUtilization;
    agg.recoveryP50Ns = report.recoveryP50;
    agg.recoveryP95Ns = report.recoveryP95;
}

void
ClusterSimulator::releasePlacement(JobRuntime &job)
{
    if (!spareClaimedAt_.empty())
        for (NpuId id : job.placement->globalOf) {
            TimeNs &claimed = spareClaimedAt_[static_cast<size_t>(id)];
            if (claimed >= 0.0) {
                spareBusyNs_ += eq_.now() - claimed;
                claimed = -1.0;
            }
        }
    placer_.release(*job.placement);
}

void
ClusterSimulator::scheduleCheckpoint(size_t index)
{
    JobRuntime &job = *jobs_[index];
    if (job.ckpt.intervalNs <= 0.0)
        return;
    // Chained timers with an incarnation guard: at most one stale
    // timer per (in)carnation fires as a no-op after the job ends
    // (the makespan is read from lastFinish_, not the drained clock).
    int incarnation = job.incarnation;
    ++ckptTimersPending_;
    eq_.schedule(job.ckpt.intervalNs, [this, index, incarnation] {
        --ckptTimersPending_;
        JobRuntime &job = *jobs_[index];
        if (!job.running || job.incarnation != incarnation)
            return;
        // Termination guard: if nothing is pending but other
        // checkpoint timers, the fabric is quiescent — every flow of
        // this job is stalled on a dead link and no event can ever
        // unstick it. Re-arming the timer would drive simulated time
        // to infinity; breaking the chain drains the queue so the
        // run-loop watchdog reports the job as stranded instead.
        if (harness_.faulted() &&
            eq_.pending() <= static_cast<size_t>(ckptTimersPending_)) {
            debugT("cluster",
                   "t=%.0f job '%s' checkpoint timer stopped: queue "
                   "quiescent (job stalled by faults)",
                   eq_.now(), job.spec.name.c_str());
            return;
        }
        // A checkpoint is a consistent cut of completed nodes:
        // in-flight work at the cut re-executes after a rollback.
        job.snapshot = job.stack->engine->snapshotDone();
        job.lastSnapshot = eq_.now();
        if (tracer())
            tracer()->instant(job.id + 1, trace::Tracer::kLifecycleTid,
                              "job", "checkpoint", eq_.now());
        for (auto &sys : job.stack->sys)
            sys->stallCompute(job.ckpt.costNs);
        scheduleCheckpoint(index);
    });
}

void
ClusterSimulator::resolveAutoInterval(JobRuntime &job)
{
    // Young/Daly sqrt(2 * C * MTBF) with the job's *effective* MTBF:
    // independent per-NPU failures arrive at size/npuMtbf, and every
    // failure domain intersecting the placement adds its own rate.
    // The sweep-level tuner (sweep/resilience.h) refines this seed
    // against simulated goodput; see docs/fault.md.
    double rate = 0.0;
    if (cfg_.fault && cfg_.fault->npuMtbfNs > 0.0)
        rate += double(job.placement->size()) / cfg_.fault->npuMtbfNs;
    std::vector<uint8_t> counted(domains_.size(), 0);
    for (NpuId id : job.placement->globalOf) {
        if (domainsOfNpu_.empty())
            break;
        for (int d : domainsOfNpu_[static_cast<size_t>(id)]) {
            if (counted[static_cast<size_t>(d)])
                continue;
            counted[static_cast<size_t>(d)] = 1;
            TimeNs mtbf = domains_[static_cast<size_t>(d)].mtbfNs > 0.0
                              ? domains_[static_cast<size_t>(d)].mtbfNs
                              : cfg_.fault->domainMtbfNs;
            if (mtbf > 0.0)
                rate += 1.0 / mtbf;
        }
    }
    ASTRA_USER_CHECK(
        rate > 0.0,
        "job '%s': checkpoint interval \"auto\" needs MTBF-based "
        "fault generation (npu_mtbf_ns or failure domains) to derive "
        "an expected failure rate from",
        job.spec.name.c_str());
    job.ckpt.intervalNs =
        fault::youngDalyInterval(job.ckpt.costNs, 1.0 / rate);
    debugT("cluster",
           "t=%.0f job '%s' auto checkpoint interval %.0f ns "
           "(effective MTBF %.0f ns)",
           eq_.now(), job.spec.name.c_str(), job.ckpt.intervalNs,
           1.0 / rate);
}

ClusterSimulator::JobRuntime *
ClusterSimulator::residentJob(NpuId global)
{
    for (auto &job : jobs_) {
        if (!job->running || !job->placement)
            continue;
        for (NpuId id : job->placement->globalOf)
            if (id == global)
                return job.get();
    }
    return nullptr;
}

bool
ClusterSimulator::allSettled() const
{
    for (const auto &job : jobs_)
        if (!job->done && !job->failed)
            return false;
    return true;
}

std::string
ClusterSimulator::faultedDomainSummary() const
{
    std::string out;
    char buf[96];
    for (const fault::FailureDomain &d : domains_) {
        int down = 0;
        for (NpuId id : d.npus)
            if (placer_.isFaulted(id))
                ++down;
        if (down == 0)
            continue;
        std::snprintf(buf, sizeof(buf), "%s%s (%d/%zu NPUs faulted)",
                      out.empty() ? "" : ", ", d.name.c_str(), down,
                      d.npus.size());
        out += buf;
    }
    return out;
}

PlacementManager::SliceScorer
ClusterSimulator::sliceScorer(PlacementPolicy policy)
{
    if (policy == PlacementPolicy::AntiAffinity) {
        // Concentration cost: sum of squared per-domain overlaps, so
        // straddling two domains (2^2+2^2=8 for 4 NPUs) beats sitting
        // inside one (4^2=16). With no declared domains, level-1
        // blocks act as implicit domains so anti-affinity still
        // spreads.
        return [this](const std::vector<NpuId> &ids) {
            double score = 0.0;
            if (!domains_.empty()) {
                std::vector<int> overlap(domains_.size(), 0);
                for (NpuId id : ids)
                    for (int d : domainsOfNpu_[static_cast<size_t>(id)])
                        ++overlap[static_cast<size_t>(d)];
                for (int o : overlap)
                    score += double(o) * double(o);
            } else {
                int block = topo_.dim(0).size;
                std::vector<int> overlap(
                    static_cast<size_t>(topo_.npus() / block), 0);
                for (NpuId id : ids)
                    ++overlap[static_cast<size_t>(id / block)];
                for (int o : overlap)
                    score += double(o) * double(o);
            }
            return score;
        };
    }
    // AvoidDegraded: live fault state dominates (a domain with any
    // member currently down is near-unusable), then projected
    // per-domain failure intensity over the horizon, then known
    // stragglers.
    return [this](const std::vector<NpuId> &ids) {
        double score = 0.0;
        TimeNs horizon = cfg_.fault ? cfg_.fault->horizonNs : 0.0;
        if (!domains_.empty()) {
            std::vector<int> overlap(domains_.size(), 0);
            for (NpuId id : ids)
                for (int d : domainsOfNpu_[static_cast<size_t>(id)])
                    ++overlap[static_cast<size_t>(d)];
            for (size_t d = 0; d < domains_.size(); ++d) {
                if (overlap[d] == 0)
                    continue;
                const fault::FailureDomain &dom = domains_[d];
                int down = 0;
                for (NpuId id : dom.npus)
                    if (placer_.isFaulted(id))
                        ++down;
                TimeNs mtbf = dom.mtbfNs > 0.0
                                  ? dom.mtbfNs
                                  : cfg_.fault->domainMtbfNs;
                double intensity = mtbf > 0.0 && horizon > 0.0
                                       ? horizon / mtbf
                                       : 0.0;
                score += double(overlap[d]) *
                         ((down > 0 ? 1000.0 : 0.0) + intensity);
            }
        }
        for (NpuId id : ids) {
            double s = npuComputeScale_[static_cast<size_t>(id)];
            if (s != 1.0)
                score += s > 1.0 ? s - 1.0 : 1.0 - s;
        }
        return score;
    };
}

void
ClusterSimulator::onStraggler(NpuId global, double scale)
{
    npuComputeScale_[static_cast<size_t>(global)] = scale;
    if (JobRuntime *job = residentJob(global)) {
        const std::vector<NpuId> &ids = job->stack->placement.globalOf;
        for (size_t l = 0; l < ids.size(); ++l)
            if (ids[l] == global)
                job->stack->sys[l]->setComputeScale(scale);
    }
}

void
ClusterSimulator::onDomainFail(const fault::FaultEvent &ev)
{
    // Fired before any of the domain's constituent NpuFail events:
    // mark the whole blast radius unplaceable atomically, so a
    // requeue-path tryAdmit triggered by an early member's failure
    // can never hand a not-yet-failed member to a pending job.
    const fault::FailureDomain &d =
        domains_[static_cast<size_t>(ev.domain)];
    for (NpuId id : d.npus)
        placer_.markFaulted(id, true);
    markIncident(ev.incident);
    debugT("cluster", "t=%.0f domain '%s' failed (%zu NPUs)", ev.at,
           d.name.c_str(), d.npus.size());
}

void
ClusterSimulator::onNpuFail(const fault::FaultEvent &ev)
{
    NpuId global = ev.npu;
    placer_.markFaulted(global, true);
    markIncident(ev.incident);
    // Fail-stop at the NIC: every egress link of the failed NPU goes
    // down. Incoming links stay up — traffic already heading to the
    // dead NPU still occupies the fabric until delivered (and is
    // harmless: the failed incarnation's engine is cancelled).
    net_.setLinkUp(global, fault::kAllFaultPeers, fault::kAllFaultDims,
                   false);
    if (JobRuntime *job = residentJob(global))
        failJob(*job, &ev);
}

void
ClusterSimulator::failJob(JobRuntime &job, const fault::FaultEvent *ev)
{
    if (ev && ev->incident >= 0)
        ++disruptions_;
    ++job.faults;
    ++job.incarnation;
    // A cold requeue discards the snapshot, so the rollback is the
    // whole incarnation's progress — not just the tail past the
    // last checkpoint cut.
    job.lostWork += job.ckpt.restart == fault::RestartMode::Requeue
                        ? eq_.now() - job.incarnationStart
                        : eq_.now() - job.lastSnapshot;
    job.failedAt = eq_.now();
    job.running = false;
    endRunSpan(job, "fail");
    job.stack->engine->cancel();
    // Quiesce the collective engine too: messages already in the
    // fabric drain (and are dropped on delivery), but the ghost
    // incarnation must not keep pumping chunk pipelines — a large
    // in-flight collective would otherwise run to completion and
    // contend with the restarted incarnation for the rest of the run.
    job.stack->coll->cancelAll();
    // The abandoned stack moves to the graveyard (see JobRuntime):
    // ghost traffic of this incarnation still references it.
    job.graveyard.push_back(std::move(job.stack));
    --runningJobs_;
    size_t index = static_cast<size_t>(job.id);
    fault::RestartMode mode = job.ckpt.restart;

    if (mode == fault::RestartMode::Spare) {
        // Patch the placement with healthy reserved spares and
        // relaunch in place — the surviving ranks keep their NPUs and
        // the snapshot (job-local done flags) stays valid on the
        // patched id set. Falls back to Migrate when the pool can't
        // cover the failure.
        std::optional<JobPlacement> swapped =
            placer_.trySpareSwap(*job.placement);
        if (swapped) {
            for (size_t r = 0; r < swapped->globalOf.size(); ++r)
                if (swapped->globalOf[r] != job.placement->globalOf[r])
                    spareClaimedAt_[static_cast<size_t>(
                        swapped->globalOf[r])] = eq_.now();
            job.placement = std::move(*swapped);
            scheduleRelaunch(job);
            tryAdmit(); // the returned faulted NPUs change nothing,
                        // but a healthy-spare reshuffle might.
            return;
        }
        mode = fault::RestartMode::Migrate;
    }

    switch (mode) {
      case fault::RestartMode::Requeue:
      case fault::RestartMode::Migrate:
        // Restart on a fresh placement: give the NPUs back and
        // re-enter the admission queue after the restart delay.
        // Requeue is a cold start (the snapshot is discarded);
        // Migrate carries it — the snapshot is a placement-
        // independent cut of job-local done flags, so it resumes
        // wherever the job lands next.
        if (mode == fault::RestartMode::Requeue)
            job.snapshot.clear();
        releasePlacement(job);
        job.placement.reset();
        eq_.schedule(job.ckpt.restartDelayNs, [this, index] {
            enqueuePending(index);
            tryAdmit();
        });
        tryAdmit(); // the freed healthy NPUs may fit a pending job.
        break;
      case fault::RestartMode::Same:
      case fault::RestartMode::Spare:
        // Restart in place once every placement NPU is healthy
        // again (driven by onNpuRecover). The placement is retained
        // so no other tenant can take the surviving NPUs.
        job.waitingRecovery = true;
        break;
    }
}

void
ClusterSimulator::onNpuRecover(const fault::FaultEvent &ev)
{
    NpuId global = ev.npu;
    placer_.markFaulted(global, false);
    net_.setLinkUp(global, fault::kAllFaultPeers, fault::kAllFaultDims,
                   true);
    for (auto &job : jobs_) {
        if (!job->waitingRecovery || !placementHealthy(*job))
            continue;
        job->waitingRecovery = false;
        scheduleRelaunch(*job);
    }
    tryAdmit();
}

void
ClusterSimulator::scheduleRelaunch(JobRuntime &job)
{
    size_t index = static_cast<size_t>(job.id);
    int incarnation = job.incarnation;
    eq_.schedule(job.ckpt.restartDelayNs, [this, index, incarnation] {
        JobRuntime &job = *jobs_[index];
        if (job.running || job.done || job.incarnation != incarnation)
            return; // superseded by a newer failure/restart.
        if (!placementHealthy(job)) {
            // A fresh failure hit the placement during the restart
            // delay; the next recovery re-arms us.
            job.waitingRecovery = true;
            return;
        }
        launch(job);
    });
}

bool
ClusterSimulator::placementHealthy(const JobRuntime &job) const
{
    for (NpuId id : job.placement->globalOf)
        if (placer_.isFaulted(id))
            return false;
    return true;
}

void
ClusterSimulator::markIncident(int incident)
{
    if (incident < 0)
        return;
    if (incidentFired_.size() <= static_cast<size_t>(incident))
        incidentFired_.resize(static_cast<size_t>(incident) + 1, 0);
    incidentFired_[static_cast<size_t>(incident)] = 1;
}

} // namespace cluster
} // namespace astra
