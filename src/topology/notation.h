/**
 * @file
 * The one spelling of a topology: the hierarchical building-block
 * notation of §IV-B / Fig. 3(c), or the name of a preset that stands
 * for such a notation.
 *
 * Grammar (case-insensitive block names, underscores between dims):
 *
 *   topology := dim ("_" dim)*
 *   dim      := block "(" size ["," bw_gbps ["," latency_ns]] ")"
 *   block    := "Ring" | "R" | "FullyConnected" | "FC" | "Switch" | "SW"
 *
 * `size` is an integer in [1, INT_MAX]; `bw_gbps` (default 100) and
 * `latency_ns` (default 500) are finite decimal numbers. Examples:
 *   "Ring(4)_Switch(2)"           — shapes only, default links.
 *   "R(4,250)_SW(2,50)"           — per-dim bandwidth in GB/s.
 *   "FC(4,100,500)_FC(2,50,700)"  — plus per-hop latency in ns.
 *
 * Presets (the Table II systems and the Fig. 3(c) platforms), e.g.
 * "conv4d" = "Ring(2,250)_FC(8,200)_Ring(8,100)_Switch(4,50)"; the
 * full table is in notation.cc and docs/network.md.
 */
#ifndef ASTRA_TOPOLOGY_NOTATION_H_
#define ASTRA_TOPOLOGY_NOTATION_H_

#include <string>

#include "common/json.h"
#include "topology/topology.h"

namespace astra {

/** A topology from a preset name (case-insensitive) or a notation
 *  string; fatal() on anything else. */
Topology parseTopology(const std::string &text);

/** The `topology` value of sweep, cluster and astra_sim configs: a
 *  string read by parseTopology(). `path` names the value in errors. */
Topology topologyFromJson(const json::Value &v,
                          const std::string &path = "topology");

/** Parse just a block name ("R", "Ring", "fc", ...); fatal() if unknown. */
BlockType parseBlockType(const std::string &name);

} // namespace astra

#endif // ASTRA_TOPOLOGY_NOTATION_H_
