/**
 * @file
 * Experiment E2 — §IV-C simulation-speed study (google-benchmark).
 *
 * The paper reports: a 1 MB All-Reduce on a 64-NPU 3-D torus takes
 * 21.42 minutes under Garnet but 1.70 s under the analytical backend
 * (756x), and the analytical backend simulates a 4096-NPU torus in
 * 3.14 s. Our packet-level backend stands in for Garnet (DESIGN.md);
 * the claim reproduced is the orders-of-magnitude gap and the
 * seconds-scale 4K-NPU run.
 */
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"

using namespace astra;
using namespace astra::bench;
using namespace astra::literals;

namespace {

Topology
torus(int k)
{
    // k x k x k torus, 448 Gb/s-class links.
    return Topology({{BlockType::Ring, k, 56.0, 500.0},
                     {BlockType::Ring, k, 56.0, 500.0},
                     {BlockType::Ring, k, 56.0, 500.0}});
}

CollectiveRequest
oneMbAllReduce()
{
    CollectiveRequest req =
        CollectiveRequest::overDims(CollectiveType::AllReduce, 1_MB);
    req.chunks = 4;
    return req;
}

void
BM_Analytical64(benchmark::State &state)
{
    Topology topo = torus(4);
    for (auto _ : state) {
        CollectiveResult r = runCollectiveOn(
            topo, NetworkBackendKind::Analytical, oneMbAllReduce());
        benchmark::DoNotOptimize(r.time);
    }
}
BENCHMARK(BM_Analytical64)->Unit(benchmark::kMillisecond);

void
BM_Packet64(benchmark::State &state)
{
    // Packet granularity chosen flit-fine (64 B) to play the role of a
    // flit-level simulator.
    Topology topo = torus(4);
    for (auto _ : state) {
        CollectiveResult r =
            runCollectiveOn(topo, NetworkBackendKind::Packet,
                            oneMbAllReduce(), 64.0);
        benchmark::DoNotOptimize(r.time);
    }
}
BENCHMARK(BM_Packet64)->Unit(benchmark::kMillisecond);

void
BM_Analytical4096(benchmark::State &state)
{
    Topology topo = torus(16);
    for (auto _ : state) {
        CollectiveResult r = runCollectiveOn(
            topo, NetworkBackendKind::Analytical, oneMbAllReduce());
        benchmark::DoNotOptimize(r.time);
    }
}
BENCHMARK(BM_Analytical4096)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);
    std::printf("E2 / SIV-C speedup: analytical vs packet-level "
                "backend, 1 MB All-Reduce\n\n");

    // Direct one-shot comparison with event counts (the number the
    // paper quotes as 756x for Garnet).
    Topology topo64 = torus(4);
    CollectiveResult a = runCollectiveOn(
        topo64, NetworkBackendKind::Analytical, oneMbAllReduce());
    CollectiveResult p = runCollectiveOn(
        topo64, NetworkBackendKind::Packet, oneMbAllReduce(), 64.0);
    std::printf("64-NPU 3D torus: analytical %.4fs (%llu events), "
                "packet-level %.4fs (%llu events)\n",
                a.wallSeconds, (unsigned long long)a.events,
                p.wallSeconds, (unsigned long long)p.events);
    std::printf("speedup: %.0fx (paper: 756x over Garnet)\n",
                p.wallSeconds / std::max(a.wallSeconds, 1e-9));

    CollectiveResult big = runCollective4096();
    std::printf("4096-NPU 3D torus (analytical): %.2fs host time "
                "(paper: 3.14s)\n\n",
                big.wallSeconds);

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
