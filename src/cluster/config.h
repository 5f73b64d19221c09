/**
 * @file
 * JSON wiring for multi-tenant cluster scenarios (docs/cluster.md).
 *
 * A cluster configuration document reuses the single-job config keys
 * (`topology`, `backend`, `system` — astra/config.h, sweep/spec.h)
 * and adds a `cluster` object describing the job mix:
 * ```json
 * {
 *   "topology": "Ring(16,100)",
 *   "backend": "flow",
 *   "system": { ... },               // default per-job system config
 *   "cluster": {
 *     "admission": "fifo" | "backfill",
 *     "baselines": true,             // isolated re-runs for slowdown
 *     "placement": "contiguous",     // default job placement policy
 *     "jobs": [
 *       {"name": "a", "arrival_ns": 0, "size": 8, "priority": 0,
 *        "count": 1,                 // replicate this spec N times
 *        "placement": "contiguous" | "spread" | "explicit",
 *        "npus": [0, 2, 4, 6],       // explicit placement only
 *        "job_topology": "Ring(4,100)",  // explicit placement only
 *        "system": { ... },          // overrides the default
 *        "workload": { ... }}        // sweep workload schema
 *     ]
 *   }
 * }
 * ```
 * Any document containing a `cluster` key is routed to the
 * ClusterSimulator by sweep::runConfig, so placement policy, job mix,
 * admission policy, and workload parameters are all sweepable axes
 * ("cluster.jobs.0.placement", "cluster.admission", ...) — including
 * one axis applied at multiple paths to move every job's placement
 * policy together.
 */
#ifndef ASTRA_CLUSTER_CONFIG_H_
#define ASTRA_CLUSTER_CONFIG_H_

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/json.h"

namespace astra {
namespace cluster {

/** A parsed cluster configuration document. */
struct ClusterScenario
{
    Topology topo;
    ClusterConfig cfg;
    std::vector<JobSpec> jobs;
};

/** True when `doc` is a cluster configuration (has a `cluster` key). */
bool isClusterDoc(const json::Value &doc);

/** Parse a cluster configuration; fatal() on schema errors. `flags`
 *  (cliOverrides()) writes over its trace and telemetry blocks. */
ClusterScenario scenarioFromJson(const json::Value &doc,
                                 const json::Value &flags = json::Value());

/** Build + run a scenario document to a full ClusterReport. */
ClusterReport runClusterScenario(const json::Value &doc);

/** Sweep-facing entry: run a cluster document and return the
 *  cluster-aggregate Report (ClusterReport::aggregate). */
Report runClusterDoc(const json::Value &doc);

/** Write a commented-by-example cluster scenario (CLI scaffolding). */
void writeSampleClusterConfig(const std::string &path);

} // namespace cluster
} // namespace astra

#endif // ASTRA_CLUSTER_CONFIG_H_
