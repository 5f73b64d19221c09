/**
 * @file
 * Shared helpers for the benchmark harnesses in bench/ and the tests
 * that pin their simulated results: the bench scenarios, each defined
 * once, plus wall-clock timing and the `--json` flag. The paper's §V figures are
 * sweep specs under examples/figures/ (docs/sweep.md "Paper figures").
 */
#ifndef ASTRA_BENCH_BENCH_UTIL_H_
#define ASTRA_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <memory>
#include <vector>

#include "astra/report.h"
#include "collective/engine.h"
#include "common/cli.h"
#include "common/units.h"
#include "event/event_queue.h"
#include "network/network_api.h"
#include "topology/topology.h"

namespace astra {
namespace bench {

/** Simulated finish time and executed events of one collective run. */
struct CollectiveResult
{
    TimeNs time = 0.0;
    uint64_t events = 0;
};

/** The §IV-C setting: a 1 MB, 4-chunk All-Reduce on a k x k x k torus
 *  (3 x Ring(k,56,500)) on a fresh backend; `packet_bytes` only
 *  applies to the packet backend. k = 16 on the analytical backend is
 *  collective_4096, the 4096-NPU scale anchor; k = 4 is the 64-NPU
 *  analytical-vs-packet speed gap. */
CollectiveResult
runTorusAllReduce(int k,
                  NetworkBackendKind backend = NetworkBackendKind::Analytical,
                  Bytes packet_bytes = 4096.0);

/** One point-to-point transfer of a TransferScenario. */
struct Transfer
{
    NpuId src;
    NpuId dst;
    Bytes bytes;
};

/** A fabric plus a batch of transfers that all start at t = 0. */
struct TransferScenario
{
    Topology topo;
    std::vector<Transfer> transfers;
};

/** incast_1024: 1023 senders -> NPU 0 through one 1024-port
 *  Switch(1024,100,500), 1 MB each. */
TransferScenario incast1024();

/** alltoall_64: uniform all-to-all on Switch(64,100,500), 256 KB per
 *  pair, issued in rotation order (step r: src -> src + r) so the
 *  down-links load evenly. */
TransferScenario allToAll64();

/** Issue every transfer on `net`, run its queue dry and return the
 *  wall seconds that took. */
double runTransfers(NetworkApi &net,
                    const std::vector<Transfer> &transfers);

/**
 * hier_allreduce_256: four staggered 2 MB, 4-chunk All-Reduces on
 * Ring(8,200,300)_Switch(32,50,500), round r joining at r * 12 us,
 * the overlapping microbatch all-reduces of a backward pass. Phases
 * start and finish continuously across 32 ring groups and 8 switch
 * instances, so most flow-solver batches touch a small component of
 * the active flows. The members are public: a caller attaches its own
 * observers (tracer, monitor, queue profile) before run().
 */
struct HierAllreduce256
{
    static constexpr int kRounds = 4;

    explicit HierAllreduce256(NetworkBackendKind backend);

    /** Join every round, run the queue dry and return the wall seconds
     *  from the first join to the last event. */
    double run();

    Topology topo;
    EventQueue eq;
    std::unique_ptr<NetworkApi> net;
    CollectiveEngine engine;
    int remaining; //!< rank completions still outstanding.
};

/** flow_allreduce_4096: a 1 MB All-Reduce on
 *  Ring(8,200,300)_Switch(512,50,500) (4096 NPUs) through the full
 *  Simulator on the flow backend, heartbeats at the default event
 *  cadence. `wallSeconds` times Simulator::run alone. */
Report runFlowAllreduce4096(double *wallSeconds = nullptr);

/** Wall seconds elapsed since `start`. */
double wallSince(std::chrono::steady_clock::time_point start);

/** `--json FILE`: where a bench writes its machine-readable results
 *  (scripts/bench.sh reads them). */
inline const Flag kJsonFlag = {"json", FlagKind::Value,
                               "write the results as JSON"};

} // namespace bench
} // namespace astra

#endif // ASTRA_BENCH_BENCH_UTIL_H_
