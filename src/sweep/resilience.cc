#include "sweep/resilience.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cluster/config.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "fault/fault.h"
#include "sweep/runner.h"

namespace astra {
namespace sweep {

namespace {

/** Goodput of `clusterDoc` with the cluster-wide default checkpoint
 *  interval overridden to `interval`. One full simulation. */
double
goodputAtInterval(const json::Value &clusterDoc, TimeNs interval)
{
    json::Value doc = clusterDoc.clone();
    applyOverride(doc, "cluster.checkpoint.interval_ns",
                  json::Value(interval));
    return runConfig(doc).goodput;
}

} // namespace

json::Value
tuningToJson(const CheckpointTuning &t)
{
    json::Object o;
    o["young_daly_ns"] = json::Value(t.youngDalyNs);
    o["interval_ns"] = json::Value(t.intervalNs);
    o["goodput"] = json::Value(t.goodput);
    json::Array probes;
    probes.reserve(t.probes.size());
    for (const IntervalProbe &p : t.probes) {
        json::Object row;
        row["interval_ns"] = json::Value(p.intervalNs);
        row["goodput"] = json::Value(p.goodput);
        probes.push_back(json::Value(std::move(row)));
    }
    o["probes"] = json::Value(std::move(probes));
    return json::Value(std::move(o));
}

TimeNs
youngDalySeed(const json::Value &clusterDoc)
{
    ASTRA_USER_CHECK(cluster::isClusterDoc(clusterDoc),
                     "resilience tuner: not a cluster config document "
                     "(missing 'cluster')");
    cluster::ClusterScenario sc =
        cluster::scenarioFromJson(clusterDoc);
    ASTRA_USER_CHECK(sc.cfg.fault.has_value(),
                     "resilience tuner: config has no 'fault' scenario");
    const fault::FaultConfig &fc = *sc.cfg.fault;
    TimeNs cost = sc.cfg.defaultCheckpoint.costNs;
    ASTRA_USER_CHECK(cost > 0.0,
                     "resilience tuner: cluster.checkpoint.cost_ns "
                     "must be > 0");

    int largest = 0;
    for (const cluster::JobSpec &j : sc.jobs) {
        int size = j.size > 0 ? j.size
                              : static_cast<int>(j.explicitNpus.size());
        largest = std::max(largest, size);
    }

    // Effective failure rate of the largest job: its own NPUs'
    // fail-stop streams, plus every declared domain's stream (before
    // placement is known, any domain may intersect it — the cluster
    // layer's resolveAutoInterval is the per-placement counterpart).
    double rate = 0.0;
    if (fc.npuMtbfNs > 0.0)
        rate += double(largest) / fc.npuMtbfNs;
    for (const fault::FailureDomain &d :
         fault::resolveDomains(fc, sc.topo))
        if (d.mtbfNs > 0.0)
            rate += 1.0 / d.mtbfNs;
    ASTRA_USER_CHECK(rate > 0.0,
                     "resilience tuner: needs MTBF-based fault "
                     "generation (fault.npu_mtbf_ns or fault.domains "
                     "with domain_mtbf_ns)");
    return fault::youngDalyInterval(cost, 1.0 / rate);
}

CheckpointTuning
tuneCheckpointInterval(const json::Value &clusterDoc, int refineEvals)
{
    ASTRA_USER_CHECK(refineEvals >= 0,
                     "resilience tuner: refineEvals must be >= 0");
    CheckpointTuning t;
    t.youngDalyNs = youngDalySeed(clusterDoc);

    auto eval = [&](TimeNs interval) {
        double g = goodputAtInterval(clusterDoc, interval);
        t.probes.push_back({interval, g});
        debugT("sweep", "tuner probe interval=%.0f ns goodput=%.4f",
               interval, g);
        return g;
    };

    // Geometric ladder around the Young/Daly seed. The result is the
    // best of all probes, ladder included, so "tuned >= best grid
    // point" holds by construction (asserted by
    // CheckpointTuner.UncorrelatedBaselineMatchesTheCommittedTuning).
    static const double kLadder[] = {0.25, 0.5, 1.0, 2.0, 4.0};
    size_t best = 0;
    for (size_t i = 0; i < 5; ++i) {
        eval(t.youngDalyNs * kLadder[i]);
        if (t.probes[i].goodput > t.probes[best].goodput)
            best = i;
    }

    // Golden-section refinement in log-interval space, bracketed by
    // the ladder neighbors of the best probe. Fixed evaluation count
    // keeps the search deterministic.
    double a = std::log(t.probes[best].intervalNs * 0.5);
    double b = std::log(t.probes[best].intervalNs * 2.0);
    const double invphi = (std::sqrt(5.0) - 1.0) / 2.0;
    double c = b - (b - a) * invphi;
    double d = a + (b - a) * invphi;
    double fc = 0.0, fd = 0.0;
    int evals = 0;
    if (refineEvals > 0) {
        fc = eval(std::exp(c));
        ++evals;
    }
    if (refineEvals > 1) {
        fd = eval(std::exp(d));
        ++evals;
    }
    while (evals < refineEvals) {
        if (fc > fd) {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * invphi;
            fc = eval(std::exp(c));
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * invphi;
            fd = eval(std::exp(d));
        }
        ++evals;
    }

    size_t arg = 0;
    for (size_t i = 1; i < t.probes.size(); ++i) {
        if (t.probes[i].goodput > t.probes[arg].goodput)
            arg = i;
    }
    t.intervalNs = t.probes[arg].intervalNs;
    t.goodput = t.probes[arg].goodput;
    return t;
}

json::Value
runResilienceStudy(const json::Value &studyDoc, int threads)
{
    json::checkKeys(studyDoc, "resilience study",
                    {"name", "config", "seeds", "tune_checkpoint",
                     "placements"});
    std::string name = studyDoc.getString("name", "resilience_study");
    ASTRA_USER_CHECK(studyDoc.has("config"),
                     "resilience study: missing 'config'");
    json::Value base = studyDoc.at("config").clone();
    ASTRA_USER_CHECK(cluster::isClusterDoc(base),
                     "resilience study: 'config' must be a cluster "
                     "document (has 'cluster')");
    int64_t seeds = studyDoc.getInt("seeds", 1);
    ASTRA_USER_CHECK(seeds >= 1,
                     "resilience study: 'seeds' must be >= 1, got %lld",
                     static_cast<long long>(seeds));
    std::vector<std::string> placements;
    if (studyDoc.has("placements")) {
        for (const json::Value &p : studyDoc.at("placements").asArray())
            placements.push_back(p.asString());
        ASTRA_USER_CHECK(!placements.empty(),
                         "resilience study: empty 'placements'");
    }

    json::Object out;
    out["study"] = json::Value(name);
    out["seeds"] = json::Value(seeds);

    if (studyDoc.getBool("tune_checkpoint", false)) {
        CheckpointTuning tuning = tuneCheckpointInterval(base);
        applyOverride(base, "cluster.checkpoint.interval_ns",
                      json::Value(tuning.intervalNs));
        out["tuning"] = tuningToJson(tuning);
    }

    // One sweep: optional placement axis (slowest) x fault.seed axis
    // (fastest, via the `seeds` shorthand), so each variant's seed
    // replications are a contiguous row block.
    json::Object spec_doc;
    spec_doc["name"] = json::Value(name);
    spec_doc["base"] = base;
    if (!placements.empty()) {
        json::Object axis;
        axis["path"] = json::Value("cluster.placement");
        axis["name"] = json::Value("placement");
        json::Array values;
        for (const std::string &p : placements)
            values.push_back(json::Value(p));
        axis["values"] = json::Value(std::move(values));
        json::Array axes;
        axes.push_back(json::Value(std::move(axis)));
        spec_doc["axes"] = json::Value(std::move(axes));
    }
    spec_doc["seeds"] = json::Value(seeds);
    SweepSpec spec = SweepSpec::fromJson(json::Value(std::move(spec_doc)));

    BatchOptions opts;
    opts.threads = threads;
    ResultStore store =
        ResultStore::fromBatch(spec, runBatch(spec, opts));

    size_t variants = placements.empty() ? 1 : placements.size();
    size_t per = store.rows() / variants;
    json::Array blocks;
    for (size_t v = 0; v < variants; ++v) {
        ResultStore group(spec.name(), spec.axisNames());
        size_t failures = 0;
        double recovery_p95_sum = 0.0;
        size_t recovery_p95_n = 0;
        for (size_t i = 0; i < per; ++i) {
            const SweepResult &r = store.row(v * per + i);
            group.add(r);
            if (r.failed) {
                ++failures;
            } else if (r.report.recoveryP95Ns > 0.0) {
                recovery_p95_sum += r.report.recoveryP95Ns;
                ++recovery_p95_n;
            }
        }
        std::string label = placements.empty()
                                ? std::string("default")
                                : placements[v];
        ASTRA_USER_CHECK(failures < per,
                         "resilience study: every seed failed for "
                         "variant '%s': %s",
                         label.c_str(),
                         store.row(v * per).error.c_str());
        json::Object block;
        block["placement"] = json::Value(label);
        block["failures"] =
            json::Value(static_cast<uint64_t>(failures));
        block["mean_goodput"] = json::Value(group.mean(Metric::Goodput));
        block["p95_goodput"] =
            json::Value(group.percentile(Metric::Goodput, 0.95));
        block["mean_availability"] =
            json::Value(group.mean(Metric::Availability));
        block["mean_blast_radius"] =
            json::Value(group.mean(Metric::BlastRadius));
        block["mean_spare_utilization"] =
            json::Value(group.mean(Metric::SpareUtilization));
        block["mean_total_ns"] =
            json::Value(group.mean(Metric::TotalTime));
        if (recovery_p95_n > 0)
            block["mean_recovery_p95_ns"] = json::Value(
                recovery_p95_sum / double(recovery_p95_n));
        blocks.push_back(json::Value(std::move(block)));
    }
    out["variants"] = json::Value(std::move(blocks));
    out["results"] = store.toJson();
    return json::Value(std::move(out));
}

void
writeSampleResilienceStudy(const std::string &path)
{
    json::Value doc = json::parse(R"json({
      "name": "rack-resilience",
      "seeds": 4,
      "tune_checkpoint": true,
      "placements": ["contiguous", "avoid_degraded"],
      "config": {
        "topology": "Ring(4,100)_Switch(2,50)",
        "backend": "flow",
        "fault": {
          "seed": 1,
          "horizon_ns": 2000000,
          "domains": [{"name": "rack", "level": 1}],
          "domain_mtbf_ns": 500000,
          "domain_mttr_ns": 50000
        },
        "cluster": {
          "admission": "backfill",
          "checkpoint": {"interval_ns": "auto", "cost_ns": 2000,
                         "restart_delay_ns": 10000,
                         "restart": "migrate"},
          "jobs": [
            {"name": "train", "arrival_ns": 0, "size": 4, "count": 3,
             "estimated_duration_ns": 200000,
             "workload": {"kind": "collective",
                          "collective": "all-reduce",
                          "bytes": 16777216}}
          ]
        }
      }
    })json");
    OutputFile::write(path, "sample file", doc.dump(2) + "\n");
}

} // namespace sweep
} // namespace astra
