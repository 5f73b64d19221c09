/**
 * @file
 * Event-core micro-benchmark: schedule/dispatch throughput of the
 * discrete-event substrate, plus the §IV-C 4096-NPU collective as the
 * end-to-end anchor. Emits machine-readable JSON (BENCH_eventcore.json
 * via scripts/bench.sh) so the perf trajectory is tracked across PRs.
 *
 * Scenarios map to the queue's internal paths:
 *  - fifo_chain:      zero-delay event chains (now-FIFO fast path).
 *  - near_window:     uniform spread over ~60 us (level-0 and
 *                     level-1 inserts + per-tick sorting).
 *  - same_timestamp:  massive tie batches (equal-time runs).
 *  - far_future:      uniform spread over 60 s (level-2 inserts and
 *                     moves down through every wheel level).
 *  - collective_4096: 1 MB All-Reduce on a 4096-NPU 3-D torus over
 *                     the analytical backend (the paper's 4K-NPU run).
 *
 * The JSON holds wall time and rate only. The pattern event counts are
 * the loop bounds below; the anchor's simulated time and event count
 * are pinned by `EventCoreDeterminism.Collective4096MatchesTheAnchor`
 * (tests/event/test_determinism.cc).
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "common/rng.h"
#include "event/event_queue.h"

using namespace astra;
using namespace astra::bench;

namespace {

struct BenchResult
{
    std::string name;
    uint64_t events = 0;
    double seconds = 0.0;
    double simTimeNs = 0.0; //!< only for the collective anchor.

    double
    eventsPerSec() const
    {
        return seconds > 0.0 ? double(events) / seconds : 0.0;
    }
};

template <typename Fn>
BenchResult
timed(const std::string &name, Fn &&fn)
{
    BenchResult r;
    r.name = name;
    auto start = std::chrono::steady_clock::now();
    r.events = fn(r);
    auto end = std::chrono::steady_clock::now();
    r.seconds = std::chrono::duration<double>(end - start).count();
    return r;
}

BenchResult
benchFifoChain(uint64_t chain_len)
{
    return timed("fifo_chain", [chain_len](BenchResult &) -> uint64_t {
        EventQueue eq;
        uint64_t remaining = chain_len;
        // Self-rescheduling zero-delay chain.
        struct Chain
        {
            EventQueue &eq;
            uint64_t &remaining;
            void
            operator()() const
            {
                if (--remaining > 0)
                    eq.schedule(0.0, Chain{eq, remaining});
            }
        };
        eq.schedule(0.0, Chain{eq, remaining});
        eq.run();
        return chain_len;
    });
}

BenchResult
benchNearWindow(uint64_t n)
{
    return timed("near_window", [n](BenchResult &) -> uint64_t {
        EventQueue eq;
        eq.reserve(n);
        Rng rng(1);
        for (uint64_t i = 0; i < n; ++i)
            eq.schedule(rng.uniform(0.0, 60000.0), [] {});
        eq.run();
        return n;
    });
}

BenchResult
benchSameTimestamp(uint64_t n)
{
    return timed("same_timestamp", [n](BenchResult &) -> uint64_t {
        EventQueue eq;
        const uint64_t kBatch = 4096;
        for (uint64_t i = 0; i < n; ++i)
            eq.scheduleAt(double(i / kBatch) * 700.0, [] {});
        eq.run();
        return n;
    });
}

BenchResult
benchFarFuture(uint64_t n)
{
    return timed("far_future", [n](BenchResult &) -> uint64_t {
        EventQueue eq;
        eq.reserve(n);
        Rng rng(2);
        for (uint64_t i = 0; i < n; ++i)
            eq.schedule(rng.uniform(0.0, 60.0 * kSec), [] {});
        eq.run();
        return n;
    });
}

BenchResult
benchCollective4096()
{
    return timed("collective_4096", [](BenchResult &r) -> uint64_t {
        CollectiveResult res = runTorusAllReduce(16);
        r.simTimeNs = res.time;
        return res.events;
    });
}

std::string
jsonReport(const std::vector<BenchResult> &results)
{
    std::string out = "{\n  \"bench\": \"eventcore\",\n  \"results\": {\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const BenchResult &r = results[i];
        out += detail::formatV(
            "    \"%s\": {\"seconds\": %.6f, "
            "\"events_per_sec\": %.0f}%s\n",
            r.name.c_str(), r.seconds, r.eventsPerSec(),
            i + 1 < results.size() ? "," : "");
    }
    out += "  }\n}\n";
    return out;
}

int
runBench(const CommandLine &cl)
{

    std::printf("event-core schedule/dispatch throughput\n\n");
    std::vector<BenchResult> results;
    results.push_back(benchFifoChain(2000000));
    results.push_back(benchNearWindow(2000000));
    results.push_back(benchSameTimestamp(2000000));
    results.push_back(benchFarFuture(1000000));
    results.push_back(benchCollective4096());

    for (const BenchResult &r : results) {
        std::printf("%-16s %9llu events in %7.3fs  -> %6.1f M events/s",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.events), r.seconds,
                    r.eventsPerSec() / 1e6);
        if (r.simTimeNs > 0.0)
            std::printf("  (sim time %.3f us)", r.simTimeNs / 1e3);
        std::printf("\n");
    }

    if (cl.has("json"))
        OutputFile::write(cl.getString("json", ""), "bench JSON",
                          jsonReport(results));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(argc, argv, {.groups = {{bench::kJsonFlag}}}, runBench);
}
