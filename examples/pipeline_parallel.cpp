/**
 * @file
 * GPipe-style pipeline parallelism: one stage per NPU with
 * micro-batched activation transfers. Demonstrates the arbitrary-
 * parallelism capability the graph-based execution engine adds
 * (§III-A / §IV-A): different NPUs execute different graphs, and
 * pipeline bubbles surface as idle time in the breakdown.
 */
#include <cstdio>
#include <sstream>

#include "astra/simulator.h"
#include "common/cli.h"
#include "common/table.h"
#include "workload/builders.h"

using namespace astra;

namespace {

int
run(const CommandLine &cl)
{
    int stages = static_cast<int>(cl.getInt("stages", 8));

    std::vector<int> micro_list;
    {
        std::stringstream ss(cl.getString("microbatches", "1,2,4,8,16"));
        std::string tok;
        while (std::getline(ss, tok, ','))
            micro_list.push_back(
                static_cast<int>(parseInt(tok, "--microbatches")));
    }

    ModelDesc model = gpt3();
    std::printf("GPT-3 pipeline over %d stages (NVLink-ring stages)\n",
                stages);

    Table table({"micro-batches", "time (ms)", "compute %", "idle+comm %",
                 "ideal bubble %"});
    for (int micro : micro_list) {
        Topology topo(
            {{BlockType::Ring, stages, 150.0, 500.0}});
        PipelineOptions opts;
        opts.microbatches = micro;
        Workload wl = buildPipelineParallel(topo, model, opts);
        Simulator sim(std::move(topo), SimulatorConfig{});
        Report r = sim.run(wl);
        double compute_pct = 100.0 * r.average.compute / r.totalTime;
        double stall_pct =
            100.0 * (r.average.idle + r.average.exposedComm) /
            r.totalTime;
        // GPipe's analytical bubble fraction: (S-1) / (M + S - 1).
        double ideal =
            100.0 * double(stages - 1) / double(micro + stages - 1);
        table.addRow({std::to_string(micro), Table::num(r.totalTime / kMs),
                      Table::num(compute_pct, 1),
                      Table::num(stall_pct, 1), Table::num(ideal, 1)});
    }
    table.print();
    std::printf("\nMore micro-batches amortize the pipeline fill/drain "
                "bubble, approaching the GPipe ideal.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagGroup flags = {
        {"stages", FlagKind::Value, "pipeline stages (default 8)"},
        {"microbatches", FlagKind::Value, "list (default 1,2,4,8,16)"}};
    return runCli(argc, argv, {.groups = {flags}}, run);
}
