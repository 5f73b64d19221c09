/**
 * @file
 * Property tests over the workload builders: every generated trace
 * must validate, execute to completion on a real simulator, and honor
 * structural invariants across parameter sweeps (including failure
 * injection on malformed traces).
 */
#include <gtest/gtest.h>

#include "astra/simulator.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "workload/builders.h"
#include "workload/et_json.h"

namespace astra {
namespace {

TEST(WorkloadProperty, HybridSweepValidatesAndRuns)
{
    Topology topo({{BlockType::Ring, 2, 200.0, 200.0},
                   {BlockType::FullyConnected, 4, 100.0, 300.0},
                   {BlockType::Switch, 2, 25.0, 600.0}});
    for (int mp : {1, 2, 4, 8, 16}) {
        HybridOptions opts;
        opts.mp = mp;
        opts.simLayers = 2;
        Workload wl = buildHybridTransformer(topo, gpt3(), opts);
        EXPECT_NO_THROW(validateWorkload(wl, topo.npus())) << mp;
        Simulator sim(topo, SimulatorConfig{});
        Report r = sim.run(wl);
        EXPECT_GT(r.totalTime, 0.0) << mp;
        // Every NPU's breakdown integrates to the makespan.
        for (const RuntimeBreakdown &b : r.perNpu)
            EXPECT_NEAR(b.total(), r.totalTime, 1.0);
    }
}

TEST(WorkloadProperty, MoreModelParallelismCutsPerNpuCompute)
{
    Topology topo({{BlockType::Switch, 16, 300.0, 300.0}});
    double prev_compute = 1e300;
    for (int mp : {1, 2, 4, 8, 16}) {
        HybridOptions opts;
        opts.mp = mp;
        opts.simLayers = 2;
        Simulator sim(topo, SimulatorConfig{});
        Report r = sim.run(buildHybridTransformer(topo, gpt3(), opts));
        EXPECT_LT(r.average.compute, prev_compute) << mp;
        prev_compute = r.average.compute;
    }
}

TEST(WorkloadProperty, IterationsScaleRuntimeLinearly)
{
    Topology topo({{BlockType::Ring, 4, 150.0, 300.0}});
    auto run_iters = [&](int iters) {
        HybridOptions opts;
        opts.mp = 1;
        opts.simLayers = 2;
        opts.iterations = iters;
        Simulator sim(topo, SimulatorConfig{});
        return sim.run(buildHybridTransformer(topo, gpt3(), opts))
            .totalTime;
    };
    TimeNs one = run_iters(1);
    TimeNs three = run_iters(3);
    EXPECT_NEAR(three / one, 3.0, 0.1);
}

TEST(WorkloadProperty, PipelineSweepsRunToCompletion)
{
    for (int stages : {2, 3, 8}) {
        for (int micro : {1, 2, 7}) {
            Topology topo(
                {{BlockType::Ring, stages, 150.0, 300.0}});
            PipelineOptions opts;
            opts.microbatches = micro;
            Workload wl = buildPipelineParallel(topo, gpt3(), opts);
            EXPECT_NO_THROW(validateWorkload(wl, stages));
            Simulator sim(topo, SimulatorConfig{});
            Report r = sim.run(wl);
            EXPECT_GT(r.totalTime, 0.0)
                << stages << "s/" << micro << "m";
        }
    }
}

TEST(WorkloadProperty, PipelineBubbleMatchesGpipeFormula)
{
    // With communication made negligible, the idle fraction must track
    // the analytical GPipe bubble (S-1)/(M+S-1).
    int stages = 4;
    Topology topo({{BlockType::Ring, stages, 10000.0, 1.0}});
    for (int micro : {2, 8, 32}) {
        PipelineOptions opts;
        opts.microbatches = micro;
        Simulator sim(topo, SimulatorConfig{});
        Report r = sim.run(buildPipelineParallel(topo, gpt3(), opts));
        double stall = (r.average.idle + r.average.exposedComm) /
                       r.totalTime;
        double ideal =
            double(stages - 1) / double(micro + stages - 1);
        EXPECT_NEAR(stall, ideal, 0.05) << micro;
    }
}

TEST(WorkloadProperty, MoeTracesRunOnBothPaths)
{
    Topology topo({{BlockType::Switch, 4, 300.0, 300.0},
                   {BlockType::Switch, 4, 25.0, 700.0}});
    for (ParamPath path :
         {ParamPath::NetworkCollectives, ParamPath::FusedInSwitch}) {
        SimulatorConfig cfg;
        RemoteMemoryConfig pool;
        pool.numNodes = 4;
        pool.gpusPerNode = 4;
        cfg.pooledMem = pool;
        MoEOptions opts;
        opts.path = path;
        opts.simLayers = 2;
        ModelDesc model = moe1T();
        model.tokensPerBatch = 1 << 14;
        Workload wl = buildMoEDisaggregated(topo, model, opts);
        EXPECT_NO_THROW(validateWorkload(wl, topo.npus()));
        Simulator sim(topo, cfg);
        Report r = sim.run(wl);
        EXPECT_GT(r.totalTime, 0.0);
    }
}

TEST(WorkloadProperty, BuilderTracesSurviveJsonRoundTrip)
{
    Topology topo({{BlockType::Ring, 2, 200.0, 200.0},
                   {BlockType::Switch, 4, 50.0, 400.0}});
    std::vector<Workload> traces;
    HybridOptions h;
    h.mp = 2;
    h.simLayers = 2;
    traces.push_back(buildHybridTransformer(topo, gpt3(), h));
    traces.push_back(buildDlrm(topo, dlrm(), {}));
    traces.push_back(
        buildSingleCollective(topo, CollectiveType::AllToAll, 1e6));
    PipelineOptions p;
    p.microbatches = 2;
    traces.push_back(buildPipelineParallel(topo, gpt3(), p));
    for (const Workload &wl : traces) {
        Workload back = workloadFromText(workloadToText(wl));
        EXPECT_EQ(workloadToText(back), workloadToText(wl))
            << wl.name;
    }
}

TEST(WorkloadFailureInjection, CorruptedTracesAreRejectedNotCrashed)
{
    // Mutate a valid serialized trace in structured ways; every
    // mutation must either parse+validate or throw FatalError.
    Topology topo({{BlockType::Ring, 2, 200.0, 200.0}});
    HybridOptions opts;
    opts.mp = 1;
    opts.simLayers = 1;
    Workload wl = buildHybridTransformer(topo, gpt3(), opts);
    std::string good = json::parse(workloadToText(wl)).dump();

    Rng rng(7);
    int rejected = 0, accepted = 0;
    for (int trial = 0; trial < 200; ++trial) {
        std::string mutated = good;
        int mutations = static_cast<int>(rng.uniformInt(1, 3));
        for (int m = 0; m < mutations; ++m) {
            size_t pos = static_cast<size_t>(
                rng.uniformInt(0, int64_t(mutated.size() - 1)));
            switch (rng.uniformInt(0, 2)) {
              case 0:
                mutated[pos] =
                    char(rng.uniformInt(32, 126)); // flip a byte.
                break;
              case 1:
                mutated.erase(pos, 1); // drop a byte.
                break;
              default:
                mutated.insert(pos, 1,
                               char(rng.uniformInt(32, 126)));
            }
        }
        try {
            Workload back = workloadFromText(mutated);
            validateWorkload(back, topo.npus());
            ++accepted; // harmless mutation (e.g., inside a name).
        } catch (const FatalError &) {
            ++rejected; // graceful rejection.
        }
        // Anything else (segfault, std::bad_alloc, assertion) fails
        // the test by crashing.
    }
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(rejected + accepted, 200);
}

TEST(WorkloadFailureInjection, MismatchedCollectiveGroupsAreFatal)
{
    // Two NPUs join the same key with different group shapes: the
    // second group never completes -> engine reports a deadlock.
    Topology topo({{BlockType::Switch, 4, 100.0, 100.0}});
    Workload wl;
    wl.name = "mismatch";
    for (NpuId n = 0; n < 4; ++n) {
        EtGraph g;
        g.npu = n;
        // NPUs 0/1 expect a group of 2; NPUs 2/3 expect the whole dim:
        // their instance waits for members 0/1 forever.
        std::vector<GroupDim> groups = (n < 2)
                                           ? std::vector<GroupDim>{{0, 2, 1}}
                                           : std::vector<GroupDim>{{0, 4, 1}};
        g.add(EtNode::collective(CollectiveType::AllReduce, 1e6, 5,
                                 wl.internGroups(groups)));
        wl.graphs.push_back(std::move(g));
    }
    validateWorkload(wl, 4);
    Simulator sim(topo, SimulatorConfig{});
    EXPECT_THROW(sim.run(wl), FatalError);
}

} // namespace
} // namespace astra
