/**
 * @file
 * Shared helpers for the benchmark harnesses in bench/: a standalone
 * collective run on a chosen backend, wall-clock timing, and the
 * `--json` flag. The paper's §V figures are sweep specs under
 * examples/figures/ (docs/sweep.md "Paper figures").
 */
#ifndef ASTRA_BENCH_BENCH_UTIL_H_
#define ASTRA_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <vector>

#include "collective/engine.h"
#include "common/cli.h"
#include "common/units.h"
#include "network/network_api.h"
#include "topology/topology.h"

namespace astra {
namespace bench {

/** Result of one standalone collective run. */
struct CollectiveResult
{
    TimeNs time = 0.0;
    double wallSeconds = 0.0;
    uint64_t events = 0;
    std::vector<double> sentPerDim;
};

/** Run one collective over the whole topology on a fresh backend;
 *  `packet_bytes` only applies to the packet backend. */
CollectiveResult runCollectiveOn(const Topology &topo,
                                 NetworkBackendKind backend,
                                 const CollectiveRequest &req,
                                 Bytes packet_bytes = 4096.0);

/** Wall seconds elapsed since `start`. */
double wallSince(std::chrono::steady_clock::time_point start);

/** `--json FILE`: where a bench writes its machine-readable results
 *  (scripts/bench.sh reads them). */
inline const Flag kJsonFlag = {"json", FlagKind::Value,
                               "write the results as JSON"};

} // namespace bench
} // namespace astra

#endif // ASTRA_BENCH_BENCH_UTIL_H_
