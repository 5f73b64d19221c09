/**
 * @file
 * Converter from an external (PyTorch-flavoured) execution-graph
 * schema into ASTRA-sim ET (paper §IV-A: "we provide a converter from
 * any ET (e.g., PyTorch ET) to ASTRA-sim ET").
 *
 * The external schema mimics the PyTorch ExecutionGraphObserver /
 * PARAM dumps the paper collects (Snippet 1): one document per rank
 * with operator nodes referencing their data dependencies by id:
 *
 *   {
 *     "schema": "pytorch-et",
 *     "rank": 0,
 *     "nodes": [
 *       {"id": 1, "name": "aten::mm", "op": "compute",
 *        "inputs": [], "attrs": {"flops": 1e9, "bytes": 4e6}},
 *       {"id": 2, "name": "nccl:all_reduce", "op": "comm",
 *        "inputs": [1], "attrs": {"comm_type": "all_reduce",
 *                                 "bytes": 1e8, "pg": 3}},
 *       {"id": 3, "name": "record_param_comms", "op": "memory",
 *        "inputs": [2], "attrs": {"bytes": 2e6, "location": "remote",
 *                                 "rw": "load"}}
 *     ]
 *   }
 *
 * Process-group ids ("pg") map to collective rendezvous keys
 * (pg << 32 | occurrence, so pg must be below 2^21 for the key to
 * survive a JSON round trip); communication groups default to the
 * whole topology unless a process-group table is supplied. Integer
 * fields (ids, inputs, peer, tag, pg) that are not integral or do not
 * fit their type are user errors naming the field.
 */
#ifndef ASTRA_WORKLOAD_CONVERTER_H_
#define ASTRA_WORKLOAD_CONVERTER_H_

#include <map>
#include <vector>

#include "common/json.h"
#include "workload/et.h"

namespace astra {

/** Optional process-group table: pg id -> group factors. */
using ProcessGroups = std::map<int64_t, std::vector<GroupDim>>;

/**
 * Convert one external per-rank document set into a Workload.
 *
 * @param rank_docs  one "pytorch-et" document per rank, rank order.
 * @param groups     process-group table (may be empty).
 */
Workload convertPyTorchTraces(const std::vector<json::Value> &rank_docs,
                              const ProcessGroups &groups = {});

} // namespace astra

#endif // ASTRA_WORKLOAD_CONVERTER_H_
