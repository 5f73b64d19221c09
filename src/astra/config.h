/**
 * @file
 * JSON configuration loading for the simulator, mirroring the real
 * ASTRA-sim's split into a *network* config (topology shape,
 * per-dimension bandwidths/latencies) and a *system* config (compute,
 * scheduling policy, chunking, memory tiers). Together with an ET
 * trace file this makes a complete simulation runnable from the
 * command line (see examples/astra_sim.cpp).
 *
 * Network config schema:
 * ```json
 * {
 *   "topology": "Ring(2,250)_FC(8,200)_Ring(8,100)_Switch(4,50)",
 *   // or a preset name such as "conv4d" (topology/notation.h)
 *   "backend": "analytical" | "analytical-pure" | "flow" | "packet"
 * }
 * ```
 *
 * System config schema:
 * ```json
 * {
 *   "peak_tflops": 234,
 *   "compute_mem_bw_gbps": 2039,
 *   "kernel_overhead_ns": 0,
 *   "collective_chunks": 8,
 *   "scheduling_policy": "baseline" | "themis",
 *   "serialize_chunks": false,
 *   "local_memory": {"bandwidth_gbps": 4096, "latency_ns": 100},
 *   "remote_memory": {
 *     "kind": "pooled" | "zero-infinity",
 *     // pooled:
 *     "architecture": "hierarchical" | "multi_level_switch"
 *                     | "ring" | "mesh",
 *     "nodes": 16, "gpus_per_node": 16, "out_node_switches": 16,
 *     "remote_memory_groups": 256, "chunk_bytes": 262144,
 *     "remote_group_bw_gbps": 100, "gpu_side_bw_gbps": 256,
 *     "in_node_fabric_bw_gbps": 256, "latency_ns": 1000,
 *     // zero-infinity:
 *     "tier_bw_gbps": 100, "latency_ns": 2000
 *   }
 * }
 * ```
 *
 * Every block rejects keys outside its schema with a path-qualified
 * error, so a typo never silently runs the default.
 */
#ifndef ASTRA_ASTRA_CONFIG_H_
#define ASTRA_ASTRA_CONFIG_H_

#include <string>

#include "astra/simulator.h"
#include "common/cli.h"
#include "common/json.h"
#include "topology/topology.h"

namespace astra {

/** Backend selection from a config document ("backend" key). */
NetworkBackendKind backendFromJson(const json::Value &doc);

/** Parse a system config block (`path` names it in errors) into a
 *  SimulatorConfig; the backend comes from the enclosing document. */
SimulatorConfig simulatorConfigFromJson(const json::Value &system_doc,
                                        NetworkBackendKind backend,
                                        const std::string &path = "system");

/** The run-level blocks of a config document. */
struct RunBlocks
{
    Topology topo;
    RunConfig cfg;
};

/**
 * Parse what RunConfig holds, and the topology, from a config
 * document: `topology`, `backend`, `fault`, `trace` and `telemetry`,
 * and stamp the telemetry config hash with sweep::configHash(doc).
 * `flags` (cliOverrides()) holds `trace` / `telemetry` blocks written
 * from the command line; their keys replace the document's.
 */
RunBlocks runBlocksFromJson(const json::Value &doc,
                            const json::Value &flags = json::Value());

/** The trace (its file flag named `trace_file_flag`) and telemetry
 *  flags given on `cl`, as `{"trace": {..}, "telemetry": {..}}`. */
json::Value cliOverrides(const CommandLine &cl, const char *trace_file_flag);

/** One config document from astra_sim's network and system files:
 *  {"topology", "backend", "system"}. */
json::Value astraSimDoc(const json::Value &network, const json::Value &system);

/** Write sample network and system config files (quickstart
 *  scaffolding): the paper's Conv-4D and A100 system. */
void writeSampleConfigs(const std::string &network_path,
                        const std::string &system_path);

} // namespace astra

#endif // ASTRA_ASTRA_CONFIG_H_
