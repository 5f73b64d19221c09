/**
 * @file
 * Shared helpers for the benchmark harnesses in bench/: standalone
 * collective runs on a chosen backend and the system/workload
 * matrices of the paper's §V case studies.
 */
#ifndef ASTRA_BENCH_BENCH_UTIL_H_
#define ASTRA_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <string>
#include <vector>

#include "astra/simulator.h"
#include "collective/engine.h"
#include "common/cli.h"
#include "common/units.h"
#include "topology/presets.h"
#include "workload/builders.h"

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

/** Run one collective over the whole topology on a fresh backend.
 *  `header_bytes`/`message_overhead` only apply to the packet
 *  backend (real-system protocol effects, see bench_fig4). */
CollectiveResult runCollectiveOn(const Topology &topo,
                                 NetworkBackendKind backend,
                                 const CollectiveRequest &req,
                                 Bytes packet_bytes = 4096.0,
                                 Bytes header_bytes = 0.0,
                                 TimeNs message_overhead = 0.0);

/** The Fig. 9 evaluation systems (Table II), by row order. */
struct SystemUnderTest
{
    std::string name;
    Topology topo;
};
std::vector<SystemUnderTest> fig9Systems();

/** The Fig. 9 workloads (Table III + the 1 GB All-Reduce row). */
enum class Fig9Workload {
    AllReduce1GB,
    Dlrm,
    Gpt3,
    Transformer1T,
};
const char *fig9WorkloadName(Fig9Workload w);
std::vector<Fig9Workload> fig9Workloads();

/** Model-parallel degree per workload (Table III, fit to 512+). */
int mpOf(Fig9Workload w);

/** Build the workload trace for a system (handles MP/DP mapping). */
Workload buildFig9Workload(const Topology &topo, Fig9Workload w);

/** Wall seconds elapsed since `start`. */
double wallSince(std::chrono::steady_clock::time_point start);

/** `--json FILE`: where a bench writes its machine-readable results
 *  (scripts/bench.sh reads them). */
inline const Flag kJsonFlag = {"json", FlagKind::Value,
                               "write the results as JSON"};

/** Run a Fig. 9 cell and return the report. */
Report runFig9Cell(const Topology &topo, Fig9Workload w,
                   SchedPolicy policy, bool serialize_chunks);

} // namespace bench
} // namespace astra

#endif // ASTRA_BENCH_BENCH_UTIL_H_
