#include "cluster/cluster.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>

#include "cluster/job_runtime.h"
#include "common/logging.h"
#include "common/table.h"
#include "sweep/spec.h"

namespace astra {
namespace cluster {

const char *
admissionPolicyName(AdmissionPolicy p)
{
    switch (p) {
      case AdmissionPolicy::Fifo: return "fifo";
      case AdmissionPolicy::Backfill: return "backfill";
    }
    return "?";
}

AdmissionPolicy
parseAdmissionPolicy(const std::string &name)
{
    if (name == "fifo")
        return AdmissionPolicy::Fifo;
    if (name == "backfill")
        return AdmissionPolicy::Backfill;
    fatal("unknown admission policy '%s' (fifo | backfill)",
          name.c_str());
}

ClusterSimulator::ClusterSimulator(Topology topo, ClusterConfig cfg)
    : cfg_(std::move(cfg)), harness_(std::move(topo), cfg_),
      topo_(harness_.topology()), eq_(harness_.eventQueue()),
      net_(harness_.network()), placer_(topo_),
      npuComputeScale_(static_cast<size_t>(topo_.npus()), 1.0)
{
}

ClusterSimulator::~ClusterSimulator() = default;

int
ClusterSimulator::addJob(JobSpec spec)
{
    ASTRA_USER_CHECK(!ran_, "addJob after run()");
    ASTRA_USER_CHECK(spec.arrival >= 0.0,
                     "job '%s': negative arrival time",
                     spec.name.c_str());
    ASTRA_USER_CHECK(spec.workload.has_value() !=
                         !spec.workloadDoc.isNull(),
                     "job '%s': set exactly one of workload / "
                     "workloadDoc",
                     spec.name.c_str());

    Topology job_topo = [&] {
        if (spec.placement == PlacementPolicy::Explicit) {
            ASTRA_USER_CHECK(!spec.explicitNpus.empty(),
                             "job '%s': explicit placement needs "
                             "'npus'",
                             spec.name.c_str());
            int n = static_cast<int>(spec.explicitNpus.size());
            if (spec.explicitTopo) {
                ASTRA_USER_CHECK(
                    spec.explicitTopo->npus() == n,
                    "job '%s': job topology has %d NPUs but the "
                    "explicit placement lists %d",
                    spec.name.c_str(), spec.explicitTopo->npus(), n);
                return *spec.explicitTopo;
            }
            // Default shape for irregular placements: one flat
            // switch dimension with the cluster's innermost link
            // parameters (timing still comes from the real fabric).
            Dimension flat = topo_.dim(0);
            flat.type = BlockType::Switch;
            flat.size = n;
            return Topology({flat});
        }
        ASTRA_USER_CHECK(spec.size >= 1 && spec.size <= topo_.npus(),
                         "job '%s': size %d out of range (cluster has "
                         "%d NPUs)",
                         spec.name.c_str(), spec.size, topo_.npus());
        return sliceTopology(topo_, spec.size); // fatal if incompatible.
    }();

    Workload wl = spec.workload
                      ? *spec.workload
                      : sweep::workloadFromSpec(job_topo,
                                                spec.workloadDoc);
    validateWorkload(wl, job_topo.npus());

    auto job = std::make_unique<JobRuntime>(
        std::move(spec), std::move(job_topo), std::move(wl));
    job->id = static_cast<int>(jobs_.size());
    if (job->spec.name.empty())
        job->spec.name = "job" + std::to_string(job->id);
    job->ckpt = job->spec.checkpoint ? *job->spec.checkpoint
                                     : cfg_.defaultCheckpoint;
    jobs_.push_back(std::move(job));
    return jobs_.back()->id;
}

void
ClusterSimulator::buildStack(JobRuntime &job, NetworkApi &fabric,
                             JobStack &stack, bool shared)
{
    // Per-job tag namespace: NPUs are reused over time, so a
    // finished tenant's unmatched deliveries must never satisfy a
    // successor's receives on the same global ids (rank_view.h).
    // Restarted jobs additionally salt with the incarnation: the
    // ghost traffic of an abandoned incarnation must never match the
    // replacement's receives either. Incarnation 0 keeps the
    // original salt bit-exactly.
    uint64_t salt = (static_cast<uint64_t>(job.id) + 1) << 48;
    if (shared)
        salt ^= static_cast<uint64_t>(job.incarnation & 0xff) << 40;
    stack.placement = *job.placement;
    stack.view = std::make_unique<RankViewNetwork>(
        fabric, job.jobTopo, stack.placement, salt);
    stack.coll = std::make_unique<CollectiveEngine>(*stack.view);
    stack.mem = makeMemory(job.spec.cfg);
    stack.sys.reserve(static_cast<size_t>(job.jobTopo.npus()));
    TimeNs now = fabric.eventQueue().now();
    for (NpuId n = 0; n < job.jobTopo.npus(); ++n) {
        stack.sys.push_back(std::make_unique<Sys>(
            n, job.spec.cfg.sys, *stack.coll, *stack.mem));
        stack.sys.back()->tracker().alignStart(now);
        if (shared) {
            // Straggler faults outlive job turnover: a new tenant on
            // a slowed NPU inherits its compute scale.
            double scale = npuComputeScale_[static_cast<size_t>(
                stack.placement.globalOf[static_cast<size_t>(n)])];
            if (scale != 1.0)
                stack.sys.back()->setComputeScale(scale);
        }
    }
    const std::vector<uint8_t> *resume =
        shared && job.incarnation > 0 && !job.snapshot.empty()
            ? &job.snapshot
            : nullptr;
    stack.engine =
        std::make_unique<ExecutionEngine>(stack.sys, job.wl, resume);
    // Only the co-executed stack is traced: the isolated baseline
    // runs on its own throwaway fabric and would pollute the shared
    // timeline with duplicate spans at wrong (restarted) clocks.
    if (shared && tracer()) {
        int32_t pid = job.id + 1;
        stack.engine->setTracer(tracer(), pid);
        stack.coll->setTracer(tracer(), pid);
        for (NpuId n = 0; n < job.jobTopo.npus(); ++n)
            tracer()->threadName(
                pid, n,
                detail::formatV(
                    "rank %d g%d", n,
                    stack.placement.globalOf[static_cast<size_t>(n)]));
    }
}

void
ClusterSimulator::launch(JobRuntime &job)
{
    job.stack = std::make_unique<JobStack>();
    buildStack(job, net_, *job.stack, /*shared=*/true);
    size_t index = static_cast<size_t>(job.id);
    job.stack->engine->setOnFinished(
        [this, index] { onJobFinished(index); });

    if (job.incarnation == 0) {
        job.admitted = eq_.now();
        job.eventsAtAdmit = eq_.executedEvents();
        job.busyAtAdmit = net_.stats().busyTimePerDim;
    } else {
        // Relaunch after an NPU failure: the original admission
        // metrics stand (duration spans all incarnations); account
        // the failure-to-restart gap instead.
        ++job.restarts;
        job.recovery += eq_.now() - job.failedAt;
        recoveryGaps_.push_back(eq_.now() - job.failedAt);
    }
    if (job.ckpt.autoInterval && job.ckpt.intervalNs <= 0.0)
        resolveAutoInterval(job);
    job.lastSnapshot = eq_.now();
    job.incarnationStart = eq_.now();
    job.running = true;
    ++runningJobs_;
    debugT("cluster", "t=%.0f job '%s' starting (incarnation %d)",
           eq_.now(), job.spec.name.c_str(), job.incarnation);
    if (job.incarnation > 0)
        traceLifecycle(job, "restart");
    if (tracer()) {
        job.traceSpan = tracer()->beginSpan(
            job.id + 1, trace::Tracer::kLifecycleTid, "job",
            job.incarnation == 0
                ? "run " + job.spec.name
                : detail::formatV("run %s inc%d", job.spec.name.c_str(),
                                  job.incarnation),
            eq_.now());
    }
    job.stack->engine->start();
    scheduleCheckpoint(index);
}

bool
ClusterSimulator::admit(JobRuntime &job)
{
    PlacementPolicy policy = job.spec.placement;
    std::optional<JobPlacement> placement =
        policy == PlacementPolicy::Explicit
            ? placer_.tryPlaceExplicit(job.spec.explicitNpus)
            : placer_.tryPlace(job.jobTopo.npus(), policy,
                               sliceScorer(policy));
    if (!placement)
        return false;
    job.placement = std::move(*placement);
    launch(job);
    return true;
}

void
ClusterSimulator::tryAdmit()
{
    for (auto it = pending_.begin(); it != pending_.end();) {
        JobRuntime &job = *jobs_[*it];
        if (admit(job)) {
            it = pending_.erase(it);
            continue;
        }
        if (cfg_.admission == AdmissionPolicy::Fifo)
            break; // the head blocks everything behind it.

        // Backfill. Without runtime estimates anywhere this is the
        // aggressive variant: anything that fits starts. When
        // estimates exist, EASY-style: project the blocked head's
        // start from the running jobs' estimated completions and let
        // a later job jump the queue only if its own estimate fits
        // into that hole (count-based free-NPU approximation; a job
        // with no estimate never backfills past a reserved head).
        TimeNs shadow = -1.0; // < 0: no reservation computable.
        if (it == pending_.begin()) {
            struct Freed { TimeNs at; int npus; };
            std::vector<Freed> freed;
            bool unknown_runtimes = false;
            for (const auto &jp : jobs_) {
                if (!jp->running || !jp->placement)
                    continue;
                if (jp->spec.estimatedDuration <= 0.0) {
                    unknown_runtimes = true;
                    continue;
                }
                TimeNs end =
                    jp->admitted + jp->spec.estimatedDuration;
                freed.push_back(
                    {std::max(end, eq_.now()),
                     jp->placement->size()});
            }
            if (!freed.empty()) {
                std::sort(freed.begin(), freed.end(),
                          [](const Freed &a, const Freed &b) {
                              return a.at < b.at;
                          });
                int avail = placer_.freeCount();
                for (const Freed &f : freed) {
                    avail += f.npus;
                    if (avail >= job.jobTopo.npus()) {
                        shadow = f.at;
                        break;
                    }
                }
                // Enough capacity never projects free (a job with an
                // unknown runtime holds the remainder): no
                // reservation unless every holder is estimated.
                if (shadow >= 0.0 && unknown_runtimes)
                    shadow = -1.0;
            }
        }
        ++it;
        while (it != pending_.end()) {
            JobRuntime &later = *jobs_[*it];
            bool fits_hole =
                shadow < 0.0 ||
                (later.spec.estimatedDuration > 0.0 &&
                 eq_.now() + later.spec.estimatedDuration <= shadow);
            if (fits_hole && admit(later))
                it = pending_.erase(it);
            else
                ++it;
        }
        break;
    }
}

void
ClusterSimulator::onJobFinished(size_t index)
{
    JobRuntime &job = *jobs_[index];
    ASTRA_ASSERT(!job.done, "job finished twice");
    job.done = true;
    job.running = false;
    job.finished = eq_.now();
    debugT("cluster", "t=%.0f job '%s' finished (%d restarts)",
           job.finished, job.spec.name.c_str(), job.restarts);
    lastFinish_ = std::max(lastFinish_, job.finished);
    endRunSpan(job, "done");
    job.eventsAtFinish = eq_.executedEvents();
    job.busyAtFinish = net_.stats().busyTimePerDim;
    job.maxLinkAtFinish = net_.stats().maxLinkBusyNs;
    for (auto &sys : job.stack->sys)
        sys->tracker().finish(job.finished);
    releasePlacement(job);
    --runningJobs_;
    tryAdmit();
}

TimeNs
ClusterSimulator::runIsolated(JobRuntime &job)
{
    // Fresh queue + fresh fabric, same placement, same workload, same
    // stack construction (buildStack): the only thing removed is the
    // other tenants. Finish is the last node's completion time (the
    // same definition the co-executed duration uses), so slowdown ==
    // 1.0 bit-exactly when nothing contended.
    EventQueue eq;
    std::unique_ptr<NetworkApi> net = makeNetwork(cfg_.backend, eq,
                                                  topo_);
    JobStack stack;
    buildStack(job, *net, stack, /*shared=*/false);
    TimeNs finish = 0.0;
    stack.engine->setOnFinished([&finish, &eq] { finish = eq.now(); });
    stack.engine->start();
    eq.run();
    ASTRA_USER_CHECK(stack.engine->finished(),
                     "job '%s': isolated baseline deadlocked",
                     job.spec.name.c_str());
    return finish;
}

JobResult
ClusterSimulator::finalizeJob(JobRuntime &job)
{
    JobResult r;
    r.id = job.id;
    r.name = job.spec.name;
    r.size = job.jobTopo.npus();
    r.placement = job.placement ? job.placement->describe() : "-";
    r.arrival = job.spec.arrival;
    r.restarts = job.restarts;
    r.failed = job.failed;
    r.error = job.error;

    // Own-traffic busy attribution, summed over every incarnation
    // that put traffic on the shared fabric (the isolated baseline
    // runs on its own fabric and is deliberately excluded).
    r.ownBusyPerDim.assign(static_cast<size_t>(topo_.numDims()), 0.0);
    auto accumulate = [&r](const JobStack *stack) {
        if (stack == nullptr || !stack->view)
            return;
        const std::vector<double> &own = stack->view->ownBusy();
        for (size_t d = 0; d < own.size(); ++d)
            r.ownBusyPerDim[d] += own[d];
    };
    for (const auto &ghost : job.graveyard)
        accumulate(ghost.get());
    accumulate(job.stack.get());

    Report &rep = r.report;
    rep.workload = job.wl.name;
    rep.numFaults = job.faults;
    rep.lostWorkNs = job.lostWork;
    rep.recoveryTimeNs = job.recovery;
    if (job.failed)
        return r; // never finished: timing/goodput fields stay 0.

    r.admitted = job.admitted;
    r.finished = job.finished;
    r.duration = job.finished - job.admitted;
    r.isolatedDuration = job.isolated;
    rep.queueingDelayNs = job.admitted - job.spec.arrival;
    rep.interferenceSlowdown =
        job.isolated > 0.0 ? r.duration / job.isolated : 0.0;
    rep.goodput = job.isolated > 0.0 && r.duration > 0.0
                      ? job.isolated / r.duration
                      : 0.0;
    rep.availability =
        r.duration > 0.0
            ? std::max(0.0, 1.0 - job.recovery / r.duration)
            : 0.0;

    rep.totalTime = r.duration;
    rep.perNpu.reserve(job.stack->sys.size());
    for (auto &sys : job.stack->sys) {
        rep.perNpu.push_back(breakdownOf(sys->tracker()));
        rep.average += rep.perNpu.back();
    }
    rep.average =
        rep.average.scaled(1.0 / double(job.stack->sys.size()));
    rep.events = job.eventsAtFinish - job.eventsAtAdmit;
    // Traffic counts span every incarnation (re-executed work after a
    // rollback is real fabric traffic); breakdowns cover the final
    // incarnation only (its trackers run [relaunch, finished]).
    rep.messages = job.stack->view->stats().messages;
    rep.bytesPerDim = job.stack->view->stats().bytesPerDim;
    for (const auto &ghost : job.graveyard) {
        rep.messages += ghost->view->stats().messages;
        const std::vector<double> &gb = ghost->view->stats().bytesPerDim;
        for (size_t d = 0; d < gb.size(); ++d)
            rep.bytesPerDim[d] += gb[d];
    }
    rep.busyTimePerDim = job.busyAtFinish;
    for (size_t d = 0; d < rep.busyTimePerDim.size(); ++d)
        rep.busyTimePerDim[d] -= job.busyAtAdmit[d];
    rep.linksPerDim = net_.stats().linksPerDim;
    rep.maxLinkBusyNs = job.maxLinkAtFinish;
    return r;
}

void
ClusterSimulator::traceLifecycle(const JobRuntime &job, const char *what)
{
    if (tracer())
        tracer()->instantStr(job.id + 1, trace::Tracer::kLifecycleTid,
                             "job", what + (" " + job.spec.name),
                             eq_.now());
}

void
ClusterSimulator::endRunSpan(JobRuntime &job, const char *what)
{
    if (!tracer() || job.traceSpan == trace::Tracer::kNoSpan)
        return;
    tracer()->endSpan(job.traceSpan, eq_.now());
    job.traceSpan = trace::Tracer::kNoSpan;
    traceLifecycle(job, what);
}

size_t
ClusterSimulator::collectiveBytes() const
{
    size_t bytes = 0;
    for (const auto &job : jobs_) {
        if (job->stack && job->stack->coll)
            bytes += job->stack->coll->bytesInUse();
        for (const auto &ghost : job->graveyard)
            if (ghost->coll)
                bytes += ghost->coll->bytesInUse();
    }
    return bytes;
}

void
ClusterSimulator::enqueuePending(size_t id)
{
    traceLifecycle(*jobs_[id], "queued");
    auto pos = std::find_if(
        pending_.begin(), pending_.end(), [&](size_t other) {
            const JobSpec &a = jobs_[id]->spec;
            const JobSpec &b = jobs_[other]->spec;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            if (a.arrival != b.arrival)
                return a.arrival < b.arrival;
            return id < other;
        });
    pending_.insert(pos, id);
}

ClusterReport
ClusterSimulator::run()
{
    ASTRA_USER_CHECK(!ran_, "a ClusterSimulator runs once; create a "
                            "fresh instance per run");
    ASTRA_USER_CHECK(!jobs_.empty(), "cluster has no jobs");
    ran_ = true;

    if (trace::Tracer *tracer = harness_.startTracing("fabric")) {
        for (const auto &job : jobs_) {
            tracer->processName(job->id + 1, job->spec.name);
            tracer->threadName(job->id + 1, trace::Tracer::kLifecycleTid,
                               "lifecycle");
        }
    }

    double host_start = telemetry::wallNow();
    // Cluster heartbeats (docs/observability.md): progress aggregates
    // workload nodes across every registered job, and each beat
    // additionally carries per-job entries. Note the aggregate can
    // regress — admissions are known up front here, but a failure
    // rolls a job's completed count back to its checkpoint snapshot.
    auto job_done = [](const JobRuntime &job) -> size_t {
        if (job.done)
            return job.wl.totalNodes();
        if (job.stack && job.stack->engine)
            return job.stack->engine->completedNodes();
        return 0;
    };
    harness_.observe(
        {[this, job_done] {
             telemetry::Progress p;
             for (const auto &job : jobs_) {
                 p.done += job_done(*job);
                 p.total += job->wl.totalNodes();
             }
             return p;
         },
         [this] { return collectiveBytes(); },
         [this, job_done] {
             std::vector<telemetry::JobProgress> out;
             out.reserve(jobs_.size());
             for (const auto &job : jobs_)
                 out.push_back({job->spec.name, job_done(*job),
                                job->wl.totalNodes()});
             return out;
         }});

    bool timed_tail = harness_.faulted();
    for (const auto &job : jobs_)
        timed_tail = timed_tail ||
                     job->ckpt.intervalNs > 0.0 ||
                     job->ckpt.autoInterval;
    startResilience();

    // Arrival order (time, then submission order). Admission order
    // within the pending queue is (priority desc, arrival, id).
    std::vector<size_t> order(jobs_.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return jobs_[a]->spec.arrival <
                                jobs_[b]->spec.arrival;
                     });

    size_t next = 0;
    while (next < order.size()) {
        TimeNs t = jobs_[order[next]]->spec.arrival;
        // Drain everything at or before the arrival, then admit at
        // exactly t (runUntil advances the clock through gaps). A
        // time-zero arrival executes no events first, so a
        // single-job cluster replays a plain Simulator run exactly.
        eq_.runUntil(t);
        while (next < order.size() &&
               jobs_[order[next]]->spec.arrival == t)
            enqueuePending(order[next++]);
        tryAdmit();
    }
    eq_.run();

    // Safety net: admission progress is normally driven by job
    // completions; if jobs are still pending on a drained queue,
    // either admit them now or report the stall. Under a fault
    // scenario a stranded job (its NPUs never recover, or a restart
    // can never be re-placed) is a legitimate *per-job* outcome, so
    // it fails in isolation instead of aborting the cluster run.
    while (!pending_.empty()) {
        size_t before = pending_.size();
        tryAdmit();
        if (pending_.size() >= before) {
            if (!harness_.faulted()) {
                ASTRA_USER_CHECK(
                    false,
                    "cluster admission stalled: job '%s' cannot be "
                    "placed (free NPUs: %d of %d)",
                    jobs_[pending_.front()]->spec.name.c_str(),
                    placer_.freeCount(), placer_.totalCount());
            }
            char buf[160];
            std::string domains_down = faultedDomainSummary();
            for (size_t id : pending_) {
                JobRuntime &job = *jobs_[id];
                std::snprintf(
                    buf, sizeof(buf),
                    "cannot be placed at drained time %.0f ns "
                    "(free NPUs: %d of %d, %d faulted)",
                    eq_.now(), placer_.freeCount(),
                    placer_.totalCount(), placer_.faultedCount());
                job.failed = true;
                job.error = buf;
                if (!domains_down.empty())
                    job.error += "; down domains: " + domains_down;
                if (!job.snapshot.empty()) {
                    std::snprintf(buf, sizeof(buf),
                                  "; snapshot watermark: %zu of %zu "
                                  "nodes done",
                                  job.snapshotWatermark(),
                                  job.wl.totalNodes());
                    job.error += buf;
                }
            }
            pending_.clear();
            break;
        }
        eq_.run();
    }

    harness_.stopHeartbeats();

    ClusterReport report;
    Report &agg = report.aggregate;
    // With fault events or checkpoint timers in flight, the drained
    // queue's clock can sit on a stale no-op tail event past the
    // last completion; the makespan is the last job finish then.
    agg.totalTime = timed_tail ? lastFinish_ : eq_.now();

    for (auto &job : jobs_) {
        if (!job->done && !job->failed) {
            // Watchdog (drained-queue diagnosis): report how far the
            // job got and every dangling send/recv on the fabric.
            size_t completed =
                job->stack && job->stack->engine
                    ? job->stack->engine->completedNodes()
                    : 0;
            std::string diag = net_.danglingSummary();
            if (harness_.faulted()) {
                char buf[192];
                std::snprintf(
                    buf, sizeof(buf),
                    "stranded at time %.0f ns: %zu of %zu nodes "
                    "completed (snapshot watermark: %zu of %zu); ",
                    eq_.now(), completed, job->wl.totalNodes(),
                    job->snapshotWatermark(), job->wl.totalNodes());
                job->failed = true;
                job->error = buf;
                std::string domains_down = faultedDomainSummary();
                if (!domains_down.empty())
                    job->error += "down domains: " + domains_down +
                                  "; ";
                job->error += diag;
            } else {
                ASTRA_USER_CHECK(
                    false,
                    "job '%s' deadlocked: %zu of %zu nodes completed "
                    "(check send/recv pairing and collective group "
                    "membership); %s",
                    job->spec.name.c_str(), completed,
                    job->wl.totalNodes(), diag.c_str());
            }
        }
        if (cfg_.isolatedBaselines && !job->failed)
            job->isolated = runIsolated(*job);
        report.jobs.push_back(finalizeJob(*job));
    }

    // Cluster-aggregate report (the sweep-facing row): queueing delay
    // and slowdown averaged over every job, goodput and availability
    // over the jobs that measured one, lost work and recovery summed
    // (the harness counts injected events of all fault kinds).
    char label[64];
    std::snprintf(label, sizeof(label), "cluster(%zu jobs)",
                  jobs_.size());
    agg.workload = label;
    agg.perNpu.assign(static_cast<size_t>(topo_.npus()),
                      RuntimeBreakdown{});
    int goodputs = 0;
    int availabilities = 0;
    for (const JobResult &jr : report.jobs) {
        const Report &r = jr.report;
        agg.queueingDelayNs += r.queueingDelayNs;
        agg.interferenceSlowdown += r.interferenceSlowdown;
        agg.lostWorkNs += r.lostWorkNs;
        agg.recoveryTimeNs += r.recoveryTimeNs;
        if (r.goodput > 0.0) {
            agg.goodput += r.goodput;
            ++goodputs;
        }
        if (r.availability > 0.0) {
            agg.availability += r.availability;
            ++availabilities;
        }
        if (jr.failed)
            continue; // no residency interval to attribute.
        const JobPlacement &pl = *jobs_[static_cast<size_t>(jr.id)]
                                      ->placement;
        for (size_t l = 0; l < r.perNpu.size(); ++l)
            agg.perNpu[static_cast<size_t>(pl.globalOf[l])] +=
                r.perNpu[l];
    }
    agg.queueingDelayNs /= double(report.jobs.size());
    agg.interferenceSlowdown /= double(report.jobs.size());
    if (goodputs > 0)
        agg.goodput /= double(goodputs);
    if (availabilities > 0)
        agg.availability /= double(availabilities);
    for (const RuntimeBreakdown &b : agg.perNpu)
        agg.average += b;
    agg.average = agg.average.scaled(1.0 / double(topo_.npus()));
    finishResilience(agg);

    // Trace analysis follows the job that set the makespan.
    int32_t analysis_pid = 0;
    for (const auto &job : jobs_)
        if (analysis_pid == 0 && job->done && job->finished == lastFinish_)
            analysis_pid = job->id + 1;
    harness_.finishReport(agg, analysis_pid);
    agg.wallSeconds = telemetry::wallNow() - host_start;
    return report;
}

void
ClusterSimulator::writeManifest(const ClusterReport &report,
                                const std::vector<std::string> &files) const
{
    harness_.writeManifest("cluster", report.aggregate, files);
}

std::string
ClusterReport::summary() const
{
    const Report &agg = aggregate;
    double max_slowdown = 0.0;
    uint64_t total_faults = 0;
    for (const JobResult &j : jobs) {
        max_slowdown = std::max(max_slowdown, j.report.interferenceSlowdown);
        total_faults += j.report.numFaults;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "cluster: %zu jobs, makespan %.3f ms, %llu events, "
                  "%llu messages\n"
                  "mean queueing delay %.3f ms, mean interference "
                  "slowdown %.3fx (max %.3fx)\n",
                  jobs.size(), agg.totalTime / kMs,
                  static_cast<unsigned long long>(agg.events),
                  static_cast<unsigned long long>(agg.messages),
                  agg.queueingDelayNs / kMs, agg.interferenceSlowdown,
                  max_slowdown);
    std::string out = buf;
    if (total_faults > 0 || agg.goodput > 0.0) {
        std::snprintf(buf, sizeof(buf),
                      "job NPU faults: %llu, mean goodput %.3f, mean "
                      "availability %.3f\n",
                      static_cast<unsigned long long>(total_faults),
                      agg.goodput, agg.availability);
        out += buf;
    }
    if (agg.blastRadius > 0.0) {
        std::snprintf(buf, sizeof(buf),
                      "blast radius %.2f jobs/incident, recovery p50 "
                      "%.3f ms / p95 %.3f ms\n",
                      agg.blastRadius, agg.recoveryP50Ns / kMs,
                      agg.recoveryP95Ns / kMs);
        out += buf;
    }
    if (agg.spareUtilization > 0.0) {
        std::snprintf(buf, sizeof(buf), "spare utilization %.1f%%\n",
                      agg.spareUtilization * 100.0);
        out += buf;
    }
    for (const JobResult &j : jobs) {
        if (j.failed) {
            std::snprintf(buf, sizeof(buf),
                          "  [%d] %-12s %4d NPUs FAILED: %s\n", j.id,
                          j.name.c_str(), j.size, j.error.c_str());
            out += buf;
            continue;
        }
        std::snprintf(
            buf, sizeof(buf),
            "  [%d] %-12s %4d NPUs %-20s arrive %.3f ms, wait %.3f "
            "ms, run %.3f ms, slowdown %.3fx\n",
            j.id, j.name.c_str(), j.size, j.placement.c_str(),
            j.arrival / kMs, j.report.queueingDelayNs / kMs,
            j.duration / kMs, j.report.interferenceSlowdown);
        out += buf;
    }
    return out;
}

namespace {

/** One scalar column of a job row: its JSON key and CSV header, its
 *  CSV format (nullptr: a quoted text cell), and its value. */
struct JobColumn
{
    const char *name;
    const char *format;
    json::Value (*get)(const JobResult &);
};

#define ASTRA_JOB_COLUMN(name, format, expr)                            \
    {name, format, [](const JobResult &j) { return json::Value(expr); }}

/** The scalar job-row columns, in CSV order. Integers print through
 *  "%.0f": every count here is far below 2^53. */
const JobColumn kJobColumns[] = {
    ASTRA_JOB_COLUMN("id", "%.0f", j.id),
    ASTRA_JOB_COLUMN("name", nullptr, j.name),
    ASTRA_JOB_COLUMN("size", "%.0f", j.size),
    ASTRA_JOB_COLUMN("placement", nullptr, j.placement),
    ASTRA_JOB_COLUMN("arrival_ns", "%.3f", j.arrival),
    ASTRA_JOB_COLUMN("admitted_ns", "%.3f", j.admitted),
    ASTRA_JOB_COLUMN("finished_ns", "%.3f", j.finished),
    ASTRA_JOB_COLUMN("queueing_delay_ns", "%.3f", j.report.queueingDelayNs),
    ASTRA_JOB_COLUMN("duration_ns", "%.3f", j.duration),
    ASTRA_JOB_COLUMN("isolated_duration_ns", "%.3f", j.isolatedDuration),
    ASTRA_JOB_COLUMN("interference_slowdown", "%.6f",
                     j.report.interferenceSlowdown),
    ASTRA_JOB_COLUMN("num_faults", "%.0f", j.report.numFaults),
    ASTRA_JOB_COLUMN("lost_work_ns", "%.3f", j.report.lostWorkNs),
    ASTRA_JOB_COLUMN("recovery_time_ns", "%.3f", j.report.recoveryTimeNs),
    ASTRA_JOB_COLUMN("restarts", "%.0f", j.restarts),
    ASTRA_JOB_COLUMN("goodput", "%.6f", j.report.goodput),
    ASTRA_JOB_COLUMN("availability", "%.6f", j.report.availability),
};

#undef ASTRA_JOB_COLUMN

} // namespace

json::Value
ClusterReport::toJson() const
{
    const Report &agg = aggregate;
    json::Object doc;
    doc["makespan_ns"] = json::Value(agg.totalTime);
    doc["events"] = json::Value(agg.events);
    doc["messages"] = json::Value(agg.messages);
    doc["mean_queueing_delay_ns"] = json::Value(agg.queueingDelayNs);
    doc["mean_interference_slowdown"] =
        json::Value(agg.interferenceSlowdown);
    doc["mean_goodput"] = json::Value(agg.goodput);
    doc["mean_availability"] = json::Value(agg.availability);
    if (agg.blastRadius > 0.0)
        doc["blast_radius"] = json::Value(agg.blastRadius);
    if (agg.recoveryP50Ns > 0.0 || agg.recoveryP95Ns > 0.0) {
        doc["recovery_p50_ns"] = json::Value(agg.recoveryP50Ns);
        doc["recovery_p95_ns"] = json::Value(agg.recoveryP95Ns);
    }
    if (agg.spareUtilization > 0.0)
        doc["spare_utilization"] = json::Value(agg.spareUtilization);
    doc["aggregate"] = reportToJson(agg);
    json::Array rows;
    rows.reserve(jobs.size());
    for (const JobResult &j : jobs) {
        json::Object row;
        for (const JobColumn &c : kJobColumns)
            row[c.name] = c.get(j);
        row["failed"] = json::Value(j.failed);
        if (j.failed)
            row["error"] = json::Value(j.error);
        json::Array own;
        own.reserve(j.ownBusyPerDim.size());
        for (double b : j.ownBusyPerDim)
            own.push_back(json::Value(b));
        row["own_busy_per_dim_ns"] = json::Value(std::move(own));
        row["report"] = reportToJson(j.report);
        rows.push_back(json::Value(std::move(row)));
    }
    doc["jobs"] = json::Value(std::move(rows));
    return json::Value(std::move(doc));
}

std::string
ClusterReport::jobsCsv() const
{
    std::string out;
    for (const JobColumn &c : kJobColumns)
        out += c.name + std::string(",");
    out += "own_busy_per_dim_ns,status\n";
    char buf[64];
    for (const JobResult &j : jobs) {
        for (const JobColumn &c : kJobColumns) {
            json::Value v = c.get(j);
            if (c.format == nullptr) {
                out += csvField(v.asString());
            } else {
                std::snprintf(buf, sizeof(buf), c.format, v.asNumber());
                out += buf;
            }
            out += ',';
        }
        // Per-dim own-busy as a semicolon-joined list (one CSV cell).
        std::string own;
        for (size_t d = 0; d < j.ownBusyPerDim.size(); ++d) {
            std::snprintf(buf, sizeof(buf), "%s%.3f",
                          d > 0 ? ";" : "", j.ownBusyPerDim[d]);
            own += buf;
        }
        out += csvField(own) + ',';
        out += j.failed ? "failed" : "ok";
        out += '\n';
    }
    return out;
}

} // namespace cluster
} // namespace astra
