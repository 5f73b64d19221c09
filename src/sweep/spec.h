/**
 * @file
 * Declarative design-space sweep specification.
 *
 * Every headline result in the paper is a sweep (the Fig. 9
 * scheduling-policy grid, the Table V hierarchical-memory scan, the
 * Fig. 11 disaggregated-system comparison), so sweeps are a
 * first-class input format: a SweepSpec names a *base* configuration
 * (topology + network backend + system config + workload) and a set of
 * *axes*, each a JSON path into the base document plus the values to
 * substitute there. Expanding the spec yields one self-contained
 * configuration document per grid point; src/sweep/runner.h executes
 * them in parallel and src/sweep/result_store.h tabulates the Reports.
 *
 * Spec schema (JSON, via common/json):
 * ```json
 * {
 *   "name": "hiermem-sweep",
 *   "mode": "cartesian" | "zip",   // default cartesian
 *   "base": {
 *     "topology": "conv4d",        // preset name or notation string
 *                                  // (topology/notation.h)
 *     "backend": "analytical" | "analytical-pure" | "flow" | "packet",
 *     "system": { ... },           // system-config schema (config.h)
 *     "workload": {
 *       "kind": "hybrid" | "dlrm" | "pipeline" | "moe" | "collective",
 *       "model": "dlrm" | "gpt3" | "transformer1t" | "moe1t",
 *       "mp": 16, "iterations": 1, "sim_layers": 0,   // hybrid
 *       "microbatches": 8,                            // pipeline
 *       "param_path": "network" | "fused",            // moe
 *       "collective": "all-reduce", "bytes": 1048576, // collective
 *     }
 *   },
 *   "axes": [
 *     {"path": "system.remote_memory.in_node_fabric_bw_gbps",
 *      "values": [256, 512, 1024]},
 *     {"paths": ["system.remote_memory.in_node_fabric_bw_gbps",
 *                "system.remote_memory.gpu_side_bw_gbps"],
 *      "name": "fabric", "values": [256, 512]},   // one knob, 2 paths
 *     {"path": "system.remote_memory.remote_group_bw_gbps",
 *      "name": "group_bw",
 *      "range": {"from": 100, "to": 500, "step": 100}},
 *     {"path": "workload.param_path",
 *      "values": ["network", "fused"],
 *      "labels": ["baseline", "opt"]}
 *   ],
 *   "seeds": 8   // shorthand for a trailing {"path": "fault.seed",
 *                // "values": [1..8]} axis: N failure realizations
 *                // per grid point (docs/sweep.md)
 * }
 * ```
 *
 * Axis values may be any JSON value (numbers, strings, whole objects —
 * e.g. swapping complete `remote_memory` blocks). `mode` controls
 * expansion: `cartesian` enumerates the full product with the *first*
 * axis varying slowest; `zip` requires equal-length axes and pairs
 * them index-by-index (configuration i takes value i of every axis).
 *
 * Every expanded configuration carries a stable 64-bit FNV-1a hash of
 * its compact-serialized document (json::Object keys are ordered, so
 * serialization — and hence the hash — is deterministic). The hash
 * identifies the configuration in the result cache: any change to any
 * setting reaching the document changes the hash and invalidates the
 * cached result.
 */
#ifndef ASTRA_SWEEP_SPEC_H_
#define ASTRA_SWEEP_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "astra/simulator.h"
#include "common/json.h"
#include "workload/et.h"

namespace astra {
namespace sweep {

/**
 * One sweep dimension: the config path(s) it patches and the values it
 * takes. Most axes patch a single path; an axis may instead list
 * several `paths` that all receive the same value — one provisioning
 * knob driving several model parameters (Table V raises the GPU-side
 * out-node bandwidth together with the in-node fabric), or one
 * placement policy applied to every job of a cluster mix.
 */
struct Axis
{
    /** Dot-separated paths into the base document (>= 1). Segments
     *  that are all digits index into arrays ("cluster.jobs.0"). */
    std::vector<std::string> paths;
    std::string name;   //!< column name (defaults to last path segment).
    std::vector<json::Value> values;
    /** Optional display labels, one per value (useful when values are
     *  whole JSON objects). Empty means "stringify the value". */
    std::vector<std::string> labels;

    /** Display string for value `i` (label if present). */
    std::string valueString(size_t i) const;

    /** Joined path list for diagnostics ("a.b+a.c"). */
    std::string pathLabel() const;
};

/** Grid expansion mode. */
enum class GridMode {
    Cartesian, //!< full product, first axis slowest.
    Zip,       //!< equal-length axes advanced in lockstep.
};

/** One expanded grid point: a self-contained configuration. */
struct SweepConfig
{
    size_t index = 0;       //!< position in the deterministic order.
    std::string label;      //!< "axis=value axis=value ..." summary.
    uint64_t hash = 0;      //!< config-document hash (cache identity).
    json::Value doc;        //!< fully-patched configuration document.
    std::vector<std::string> axisValues; //!< display value per axis.
};

/** Runnable pieces materialized from a configuration document. */
struct MaterializedConfig
{
    Topology topo;
    SimulatorConfig cfg;
    Workload workload;
};

/** See file comment. */
class SweepSpec
{
  public:
    /** Parse and validate a spec document; fatal() on schema errors. */
    static SweepSpec fromJson(const json::Value &doc);

    /** Parse a spec file; fatal() if unreadable or invalid. */
    static SweepSpec fromFile(const std::string &path);

    const std::string &name() const { return name_; }
    GridMode mode() const { return mode_; }
    const std::vector<Axis> &axes() const { return axes_; }
    const json::Value &base() const { return base_; }

    /** Number of configurations the grid expands to. */
    size_t configCount() const;

    /** Expand grid point `index` (0 <= index < configCount()). */
    SweepConfig config(size_t index) const;

    /** Column names, one per axis (for result tables). */
    std::vector<std::string> axisNames() const;

  private:
    std::string name_ = "sweep";
    GridMode mode_ = GridMode::Cartesian;
    json::Value base_;
    std::vector<Axis> axes_;
};

/**
 * Overlay `value` at dot-separated `path` inside `doc` (creating
 * intermediate objects as needed); fatal() if a path segment collides
 * with a non-object value. An all-digits segment indexes into an
 * existing array ("cluster.jobs.0.placement"); out-of-range indices
 * are a user error (arrays are never grown implicitly).
 */
void applyOverride(json::Value &doc, const std::string &path,
                   const json::Value &value);

/** Stable 64-bit FNV-1a hash of a configuration document (includes a
 *  schema-version salt so a materialization change invalidates old
 *  cache files). */
uint64_t configHash(const json::Value &doc);

/** Canonical 16-digit hex rendering of a config hash — the one format
 *  shared by cache-file keys and the result tables' `config` column,
 *  so rows can be cross-referenced against cache entries. */
std::string configHashString(uint64_t hash);

/**
 * Version of the configuration semantics baked into config hashes and
 * cache files. BUMP THIS whenever a change alters what a configuration
 * document *means* or the results it produces — materialization
 * changes, collective/timing model fixes — so persisted caches from
 * older builds are orphaned instead of silently serving stale Reports.
 */
constexpr uint64_t kSpecSchemaVersion = 5; //!< 5: failure domains,
                                           //!< fault-aware placement,
                                           //!< domain-metric columns.

/**
 * Turn a configuration document into runnable pieces: topology,
 * simulator config, and the workload trace built against that
 * topology. fatal() on invalid configuration.
 */
MaterializedConfig materializeConfig(const json::Value &doc);

/** Build a workload from the sweep workload schema (see file
 *  comment) against `topo`; `path` names the block in errors. Shared
 *  with cluster job specs, whose workloads are built against the
 *  job's sliced topology. */
Workload workloadFromSpec(const Topology &topo, const json::Value &w,
                          const std::string &path = "workload");

/** Write a commented-by-example sweep spec (CLI scaffolding). */
void writeSampleSpec(const std::string &path);

} // namespace sweep
} // namespace astra

#endif // ASTRA_SWEEP_SPEC_H_
