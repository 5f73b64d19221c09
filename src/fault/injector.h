/**
 * @file
 * FaultInjector: drives a fault timeline through the event queue.
 *
 * The injector materializes the timeline once (fault/fault.h
 * buildTimeline — explicit schedule merged with seeded MTBF/MTTR
 * generation) and then *chains* its events: only the next pending
 * fault is ever in the event queue, and each firing schedules its
 * successor. Chaining matters for two reasons: the queue never holds
 * a long tail of far-future fault events (which would extend the
 * queue-drained time to the fault horizon), and the `active` hook can
 * cut the chain as soon as the simulation's real work is done — at
 * most one no-op fault event fires past the workload's finish.
 *
 * Link faults are applied directly through the NetworkApi fault
 * hooks; NPU faults and stragglers are delegated to the owner
 * (Simulator or ClusterSimulator) via FaultHooks callbacks, because
 * the training-stack response (rollback, restart, placement) lives
 * above the network layer. Constructing an injector whose timeline
 * contains NPU failures without an `npuFail` hook is a user error:
 * the plain single-job Simulator has no failure-recovery story, so it
 * rejects such schedules up front instead of hanging.
 */
#ifndef ASTRA_FAULT_INJECTOR_H_
#define ASTRA_FAULT_INJECTOR_H_

#include <functional>
#include <vector>

#include "event/event_queue.h"
#include "fault/fault.h"
#include "network/network_api.h"

namespace astra {

namespace trace { class Tracer; }

namespace fault {

/** Owner callbacks; see file comment. `net` is required whenever the
 *  timeline contains link faults or stragglers with injection
 *  slowdown; `npuFail`/`npuRecover` whenever it contains NPU faults. */
struct FaultHooks
{
    NetworkApi *net = nullptr;
    std::function<void(NpuId, double)> computeScale;
    /** NPU fail-stop/recovery; the full event carries domain/incident
     *  attribution for blast-radius accounting. */
    std::function<void(const FaultEvent &)> npuFail;
    std::function<void(const FaultEvent &)> npuRecover;
    /** Optional: fired on the DomainFail/DomainRecover *parent* event,
     *  before any of its constituent events. Lets the cluster layer
     *  mark a whole domain unplaceable atomically so admissions between
     *  member failures cannot land inside the blast radius. */
    std::function<void(const FaultEvent &)> domainFail;
    std::function<void(const FaultEvent &)> domainRecover;
    /** Chain gate: when it returns false the injector stops applying
     *  and scheduling events (the simulation's work is done). Null
     *  means "always active". */
    std::function<bool()> active;
};

/** See file comment. */
class FaultInjector
{
  public:
    FaultInjector(EventQueue &eq, const Topology &topo,
                  const FaultConfig &cfg, FaultHooks hooks);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Schedule the first timeline event (no-op on empty timelines). */
    void start();

    /** Attach the tracing sink (docs/trace.md): every applied fault
     *  event becomes an instant on the lifecycle track of process
     *  `pid`. Null detaches. Purely observational. */
    void
    setTracer(trace::Tracer *tracer, int32_t pid)
    {
        tracer_ = tracer;
        tracePid_ = pid;
    }

    /** Number of fault events applied so far. */
    uint64_t firedCount() const { return fired_; }

  private:
    void scheduleNext(size_t index);
    void apply(const FaultEvent &ev);

    EventQueue &eq_;
    FaultHooks hooks_;
    std::vector<FaultEvent> timeline_;
    uint64_t fired_ = 0;
    bool started_ = false;
    trace::Tracer *tracer_ = nullptr; //!< null = tracing disabled.
    int32_t tracePid_ = 0;
};

} // namespace fault
} // namespace astra

#endif // ASTRA_FAULT_INJECTOR_H_
