#include "cluster/config.h"

#include <utility>

#include "astra/config.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "topology/notation.h"

namespace astra {
namespace cluster {

namespace {

JobSpec
jobFromJson(const json::Value &j, const Topology &topo,
            NetworkBackendKind backend, PlacementPolicy default_policy,
            const json::Value *default_system, const std::string &path)
{
    json::checkKeys(j, path,
                    {"name", "arrival_ns", "priority", "placement", "npus",
                     "job_topology", "size", "system", "workload", "count",
                     "checkpoint", "estimated_duration_ns"});
    JobSpec spec;
    spec.name = j.getString("name", "");
    spec.arrival = j.getNumber("arrival_ns", 0.0);
    ASTRA_USER_CHECK(spec.arrival >= 0.0 &&
                         spec.arrival == spec.arrival,
                     "%s.arrival_ns: must be a non-negative time, got "
                     "%g",
                     path.c_str(), spec.arrival);
    spec.priority = static_cast<int>(j.getInt("priority", 0));
    spec.placement = j.has("placement")
                         ? parsePlacementPolicy(
                               j.at("placement").asString())
                         : default_policy;

    if (spec.placement == PlacementPolicy::Explicit) {
        ASTRA_USER_CHECK(j.has("npus"),
                         "%s: explicit placement needs 'npus'",
                         path.c_str());
        for (const json::Value &n : j.at("npus").asArray()) {
            double raw = n.asNumber();
            NpuId id = static_cast<NpuId>(raw);
            ASTRA_USER_CHECK(
                raw == static_cast<double>(id) && id >= 0 &&
                    id < topo.npus(),
                "%s.npus: placement index %g out of range (cluster "
                "has %d NPUs)",
                path.c_str(), raw, topo.npus());
            spec.explicitNpus.push_back(id);
        }
        if (j.has("job_topology"))
            spec.explicitTopo = topologyFromJson(j.at("job_topology"),
                                                 path + ".job_topology");
    } else {
        ASTRA_USER_CHECK(j.has("size"), "%s: missing 'size'",
                         path.c_str());
        spec.size = static_cast<int>(j.at("size").asInt());
        ASTRA_USER_CHECK(spec.size >= 1 && spec.size <= topo.npus(),
                         "%s.size: %d out of range (cluster has %d "
                         "NPUs)",
                         path.c_str(), spec.size, topo.npus());
    }

    const json::Value *system =
        j.has("system") ? &j.at("system") : default_system;
    if (system != nullptr)
        spec.cfg = simulatorConfigFromJson(
            *system, backend,
            j.has("system") ? path + ".system" : "system");
    else
        spec.cfg.backend = backend;

    if (j.has("checkpoint"))
        spec.checkpoint = fault::checkpointFromJson(
            j.at("checkpoint"), path + ".checkpoint");

    spec.estimatedDuration = j.getNumber("estimated_duration_ns", 0.0);
    ASTRA_USER_CHECK(spec.estimatedDuration >= 0.0 &&
                         spec.estimatedDuration ==
                             spec.estimatedDuration,
                     "%s.estimated_duration_ns: must be a non-negative "
                     "time, got %g",
                     path.c_str(), spec.estimatedDuration);

    ASTRA_USER_CHECK(j.has("workload"), "%s: missing 'workload'",
                     path.c_str());
    spec.workloadDoc = j.at("workload").clone();
    return spec;
}

} // namespace

bool
isClusterDoc(const json::Value &doc)
{
    return doc.isObject() && doc.has("cluster");
}

ClusterScenario
scenarioFromJson(const json::Value &doc, const json::Value &flags)
{
    ASTRA_USER_CHECK(isClusterDoc(doc),
                     "not a cluster configuration (missing 'cluster')");
    json::checkKeys(doc, "config",
                    {"topology", "backend", "system", "cluster", "fault",
                     "trace", "telemetry"});
    const json::Value &c = doc.at("cluster");
    json::checkKeys(c, "cluster",
                    {"admission", "baselines", "placement", "jobs",
                     "checkpoint", "spares"});
    RunBlocks run = runBlocksFromJson(doc, flags);
    ClusterScenario scenario{std::move(run.topo), ClusterConfig{}, {}};
    static_cast<RunConfig &>(scenario.cfg) = std::move(run.cfg);
    scenario.cfg.admission =
        parseAdmissionPolicy(c.getString("admission", "fifo"));
    scenario.cfg.isolatedBaselines = c.getBool("baselines", true);
    if (c.has("checkpoint"))
        scenario.cfg.defaultCheckpoint = fault::checkpointFromJson(
            c.at("checkpoint"), "cluster.checkpoint");
    if (c.has("spares")) {
        // A count reserves the highest NPU ids; a string names one
        // whole failure domain from fault.domains (docs/fault.md).
        const json::Value &s = c.at("spares");
        if (s.isString()) {
            scenario.cfg.spareDomain = s.asString();
            ASTRA_USER_CHECK(!scenario.cfg.spareDomain.empty(),
                             "cluster.spares: empty domain name");
        } else {
            scenario.cfg.spareCount = static_cast<int>(s.asInt());
            ASTRA_USER_CHECK(scenario.cfg.spareCount >= 1,
                             "cluster.spares: must be >= 1 (omit the "
                             "key for no spares)");
        }
    }

    PlacementPolicy default_policy =
        c.has("placement")
            ? parsePlacementPolicy(c.at("placement").asString())
            : PlacementPolicy::Contiguous;
    const json::Value *default_system =
        doc.has("system") ? &doc.at("system") : nullptr;

    ASTRA_USER_CHECK(c.has("jobs"), "cluster config: missing 'jobs'");
    size_t job_index = 0;
    for (const json::Value &j : c.at("jobs").asArray()) {
        std::string path =
            "cluster.jobs." + std::to_string(job_index++);
        JobSpec spec = jobFromJson(j, scenario.topo,
                                   scenario.cfg.backend, default_policy,
                                   default_system, path);
        int count = static_cast<int>(j.getInt("count", 1));
        ASTRA_USER_CHECK(count >= 1, "%s.count: must be >= 1",
                         path.c_str());
        for (int i = 0; i < count; ++i) {
            JobSpec copy = spec;
            copy.workloadDoc = spec.workloadDoc.clone();
            if (count > 1 && !copy.name.empty())
                copy.name += "#" + std::to_string(i);
            scenario.jobs.push_back(std::move(copy));
        }
    }
    ASTRA_USER_CHECK(!scenario.jobs.empty(),
                     "cluster config: empty 'jobs'");
    return scenario;
}

ClusterReport
runClusterScenario(const json::Value &doc)
{
    ClusterScenario scenario = scenarioFromJson(doc);
    ClusterSimulator sim(std::move(scenario.topo), scenario.cfg);
    for (JobSpec &job : scenario.jobs)
        sim.addJob(std::move(job));
    ClusterReport report = sim.run();
    sim.writeManifest(report);
    return report;
}

Report
runClusterDoc(const json::Value &doc)
{
    return runClusterScenario(doc).aggregate;
}

void
writeSampleClusterConfig(const std::string &path)
{
    json::Value doc = json::parse(R"json({
      "topology": "Ring(16,100)",
      "backend": "flow",
      "system": {"peak_tflops": 234, "collective_chunks": 4},
      "cluster": {
        "admission": "fifo",
        "baselines": true,
        "placement": "contiguous",
        "jobs": [
          {"name": "train-a", "arrival_ns": 0, "size": 8,
           "workload": {"kind": "collective",
                        "collective": "all-reduce",
                        "bytes": 4194304}},
          {"name": "train-b", "arrival_ns": 0, "size": 8,
           "placement": "spread",
           "workload": {"kind": "collective",
                        "collective": "all-reduce",
                        "bytes": 4194304}}
        ]
      }
    })json");
    OutputFile::write(path, "sample file", doc.dump(2) + "\n");
}

} // namespace cluster
} // namespace astra
