/**
 * @file
 * Resilience-study benchmarks (docs/fault.md "Checkpoint auto-tuning"
 * and "Fault-aware placement"). Emits BENCH_resilience.json via
 * scripts/bench.sh so the tuner and placement-policy contracts are
 * tracked — and gated — across PRs.
 *
 * Scenarios:
 *  - tuner_uncorrelated: checkpoint-interval auto-tuning on an
 *    uncorrelated per-NPU-MTBF baseline. Contracts: the tuned
 *    interval's goodput is >= every fixed-interval grid point (the
 *    grid IS the tuner's Young/Daly ladder, so this holds by
 *    construction and a violation means the tuner regressed), and
 *    the tuned interval stays within 2x of the Young/Daly closed
 *    form (the classic result is near-optimal when failures are
 *    independent — a tuner wandering far from it is mis-modelling).
 *  - grid_ydx*: the five fixed-interval grid points (Young/Daly
 *    ladder multiples 1/4 .. 4x), each exact-gated.
 *  - placement_oblivious / placement_avoid_degraded /
 *    placement_spare: mean goodput over 4 fault seeds under
 *    correlated rack failures (one flaky 2-NPU rack, long MTTR).
 *    The oblivious contiguous baseline parks the job on the flaky
 *    rack and waits out every outage in place; avoid_degraded dodges
 *    the rack entirely; spare restart patches the dead members from
 *    a reserved pool. Contract: both fault-aware variants strictly
 *    beat the oblivious baseline's mean goodput.
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "common/units.h"
#include "sweep/resilience.h"
#include "sweep/result_store.h"
#include "sweep/runner.h"

using namespace astra;
using namespace astra::sweep;

namespace {

struct Scenario
{
    std::string name;
    double goodput = 0.0;          //!< per-run or seed-mean goodput.
    double availability = 0.0;     //!< seed-mean availability.
    double blastRadius = 0.0;      //!< seed-mean blast radius.
    double spareUtilization = 0.0; //!< seed-mean spare-pool busy frac.
    TimeNs intervalNs = 0.0;       //!< checkpoint interval probed.
    TimeNs youngDalyNs = 0.0;      //!< closed-form seed (tuner row).
    double wallSeconds = 0.0;
};

/** Uncorrelated baseline: independent per-NPU failures, one long
 *  multi-checkpoint training job, in-place restart. The workload
 *  must be multi-node (hybrid transformer, not one monolithic
 *  collective): a checkpoint cut captures completed nodes and the
 *  cost stalls compute, so goodput actually curves with the
 *  interval — too short pays the cost too often, too long re-runs a
 *  long tail after every failure. */
json::Value
uncorrelatedDoc()
{
    return json::parse(R"json({
      "topology": "Ring(8,100)",
      "backend": "flow",
      "fault": {
        "seed": 11,
        "horizon_ns": 80000000000,
        "npu_mtbf_ns": 40000000000,
        "npu_mttr_ns": 200000000
      },
      "cluster": {
        "checkpoint": {"interval_ns": 100000000, "cost_ns": 10000000,
                       "restart_delay_ns": 5000000},
        "jobs": [
          {"name": "train", "size": 8,
           "workload": {"kind": "hybrid", "model": "gpt3",
                        "sim_layers": 2, "iterations": 4}}
        ]
      }
    })json");
}

/** Correlated rack failures: NPUs {0,1} form a flaky domain with a
 *  long repair time; the rest of the switch fabric is quiet. One
 *  4-NPU job on 8 NPUs, so the placement policy genuinely chooses
 *  between the flaky half and the quiet half (two jobs would fill
 *  both and every policy would look the same). The placement /
 *  restart policy under test is patched in per variant. */
json::Value
correlatedDoc()
{
    return json::parse(R"json({
      "topology": "Switch(8,100)",
      "backend": "flow",
      "fault": {
        "seed": 3,
        "horizon_ns": 80000000000,
        "domains": [{"name": "flakyrack", "npus": [0, 1],
                     "mtbf_ns": 5000000000, "mttr_ns": 2500000000}]
      },
      "cluster": {
        "checkpoint": {"interval_ns": 200000000, "cost_ns": 1000000,
                       "restart_delay_ns": 5000000},
        "jobs": [
          {"name": "train", "size": 4,
           "workload": {"kind": "hybrid", "model": "gpt3",
                        "sim_layers": 2, "iterations": 4}}
        ]
      }
    })json");
}

/** Mean resilience metrics over `seeds` fault realizations. */
Scenario
placementVariant(const std::string &name, const json::Value &base,
                 int seeds)
{
    auto start = std::chrono::steady_clock::now();
    json::Object doc;
    doc["name"] = json::Value(name);
    doc["base"] = base;
    doc["seeds"] = json::Value(static_cast<int64_t>(seeds));
    SweepSpec spec = SweepSpec::fromJson(json::Value(std::move(doc)));
    ResultStore store =
        ResultStore::fromBatch(spec, runBatch(spec, BatchOptions{}));

    Scenario s;
    s.name = name;
    s.goodput = store.mean(Metric::Goodput);
    s.availability = store.mean(Metric::Availability);
    s.blastRadius = store.mean(Metric::BlastRadius);
    s.spareUtilization = store.mean(Metric::SpareUtilization);
    s.wallSeconds = bench::wallSince(start);
    return s;
}

std::string
jsonReport(const std::vector<Scenario> &scenarios)
{
    std::string out = "{\n  \"bench\": \"resilience_study\",\n"
                      "  \"scenarios\": {\n";
    for (size_t i = 0; i < scenarios.size(); ++i) {
        const Scenario &s = scenarios[i];
        out += detail::formatV(
            "    \"%s\": {\"goodput\": %.6f, \"availability\": %.6f, "
            "\"blast_radius\": %.6f, \"spare_utilization\": %.6f, "
            "\"interval_ns\": %.3f, \"young_daly_ns\": %.3f, "
            "\"wall_seconds\": %.6f}%s\n",
            s.name.c_str(), s.goodput, s.availability, s.blastRadius,
            s.spareUtilization, s.intervalNs, s.youngDalyNs,
            s.wallSeconds,
            i + 1 < scenarios.size() ? "," : "");
    }
    out += "  }\n}\n";
    return out;
}

int
runBench(const CommandLine &cl)
{
    std::string only = cl.getString("only", "");

    std::printf("resilience-study benchmarks (tuner + placement "
                "policies)\n\n");
    std::vector<Scenario> scenarios;
    auto wanted = [&only](const char *name) {
        return only.empty() || std::strstr(name, only.c_str()) != nullptr;
    };

    // -- Checkpoint auto-tuning on the uncorrelated baseline.
    json::Value tuner_doc = uncorrelatedDoc();
    CheckpointTuning tuning;
    if (wanted("tuner") || wanted("grid")) {
        auto start = std::chrono::steady_clock::now();
        tuning = tuneCheckpointInterval(tuner_doc);
        double wall = bench::wallSince(start);

        Scenario t;
        t.name = "tuner_uncorrelated";
        t.goodput = tuning.goodput;
        t.intervalNs = tuning.intervalNs;
        t.youngDalyNs = tuning.youngDalyNs;
        t.wallSeconds = wall;
        scenarios.push_back(t);

        // The first five probes ARE the fixed-interval comparison
        // grid (Young/Daly ladder multiples 1/4x .. 4x).
        static const char *grid_names[] = {
            "grid_ydx025", "grid_ydx05", "grid_ydx1", "grid_ydx2",
            "grid_ydx4"};
        for (size_t i = 0; i < 5; ++i) {
            Scenario g;
            g.name = grid_names[i];
            g.goodput = tuning.probes[i].goodput;
            g.intervalNs = tuning.probes[i].intervalNs;
            g.wallSeconds = 0.0; // probed inside the tuner call.
            scenarios.push_back(g);
        }
    }

    // -- Placement policies under correlated rack failures.
    const int kSeeds = 4;
    size_t placement_base = scenarios.size();
    if (wanted("placement")) {
        json::Value oblivious = correlatedDoc();
        applyOverride(oblivious, "cluster.placement",
                      json::Value(std::string("contiguous")));
        applyOverride(oblivious, "cluster.checkpoint.restart",
                      json::Value(std::string("same")));
        scenarios.push_back(placementVariant("placement_oblivious",
                                             oblivious, kSeeds));

        json::Value avoid = correlatedDoc();
        applyOverride(avoid, "cluster.placement",
                      json::Value(std::string("avoid_degraded")));
        applyOverride(avoid, "cluster.checkpoint.restart",
                      json::Value(std::string("same")));
        scenarios.push_back(placementVariant("placement_avoid_degraded",
                                             avoid, kSeeds));

        json::Value spare = correlatedDoc();
        applyOverride(spare, "cluster.placement",
                      json::Value(std::string("contiguous")));
        applyOverride(spare, "cluster.checkpoint.restart",
                      json::Value(std::string("spare")));
        applyOverride(spare, "cluster.spares",
                      json::Value(int64_t{2}));
        scenarios.push_back(placementVariant("placement_spare", spare,
                                             kSeeds));
    }

    for (const Scenario &s : scenarios) {
        std::printf("%-26s goodput %.4f  avail %.4f  blast %.3f  "
                    "spare %.3f  interval %8.0f ns  %.4f s wall\n",
                    s.name.c_str(), s.goodput, s.availability,
                    s.blastRadius, s.spareUtilization, s.intervalNs,
                    s.wallSeconds);
    }

    if (cl.has("json"))
        OutputFile::write(cl.getString("json", ""), "bench JSON",
                          jsonReport(scenarios));

    if (!only.empty()) // debugging subset: no contracts.
        return 0;

    // Contracts, enforced here so a drift fails bench.sh --check
    // loudly (acceptance gates, docs/fault.md).
    const Scenario &tuner = scenarios[0];
    double best_grid = 0.0;
    for (size_t i = 1; i <= 5; ++i)
        best_grid = std::max(best_grid, scenarios[i].goodput);
    if (tuner.goodput < best_grid) {
        std::printf("\nFAIL: tuned goodput %.6f below the best "
                    "fixed-interval grid point %.6f\n",
                    tuner.goodput, best_grid);
        return 1;
    }
    double log_gap =
        std::fabs(std::log2(tuner.intervalNs / tuner.youngDalyNs));
    if (log_gap > 1.0) {
        std::printf("\nFAIL: tuned interval %.0f ns is %.2f octaves "
                    "from the Young/Daly seed %.0f ns (limit: 1)\n",
                    tuner.intervalNs, log_gap, tuner.youngDalyNs);
        return 1;
    }
    const Scenario &obliv = scenarios[placement_base];
    const Scenario &avoid = scenarios[placement_base + 1];
    const Scenario &spare = scenarios[placement_base + 2];
    if (avoid.goodput <= obliv.goodput) {
        std::printf("\nFAIL: avoid_degraded mean goodput %.6f does "
                    "not beat the oblivious baseline %.6f\n",
                    avoid.goodput, obliv.goodput);
        return 1;
    }
    if (spare.goodput <= obliv.goodput) {
        std::printf("\nFAIL: spare-restart mean goodput %.6f does "
                    "not beat the oblivious baseline %.6f\n",
                    spare.goodput, obliv.goodput);
        return 1;
    }
    std::printf("\nall resilience contracts hold (tuned >= grid, "
                "tuned within 2x Young/Daly, fault-aware > "
                "oblivious)\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliSpec spec{.groups = {{bench::kJsonFlag,
                             {"only", FlagKind::Value, "name filter"}}}};
    return runCli(argc, argv, spec, runBench);
}
