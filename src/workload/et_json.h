/**
 * @file
 * ASTRA-sim ET JSON (de)serialization (paper §IV-A).
 *
 * The on-disk schema ("astra-sim-et-v2") mirrors the in-memory
 * Workload: a document header plus one node array per NPU. Node
 * objects carry only the fields meaningful for their type; see
 * tests/workload/test_et_json.cc for examples. Nodes name themselves
 * and their dependencies by id; the loader resolves ids to positions
 * (IdGraphBuilder) and the writer emits the original ids. Integer
 * fields that are not integral or do not fit their type, and keys or
 * tags outside [0, 2^53), are user errors naming the field's path.
 * Both directions stream, one node at a time. The writer's bytes are
 * the whole document's Value::dump(2), so keys come sorted: "graphs"
 * before "name", "npus" and "schema", a graph's "nodes" before its
 * "npu". The loader takes keys in any order and checks the schema and
 * graph count once the document has been read.
 */
#ifndef ASTRA_WORKLOAD_ET_JSON_H_
#define ASTRA_WORKLOAD_ET_JSON_H_

#include <string>
#include <string_view>

#include "workload/et.h"

namespace astra {

/** Write and read an astra-sim-et-v2 file; fatal() on schema
 *  violations. */
void saveWorkload(const std::string &path, const Workload &wl);
Workload loadWorkload(const std::string &path);

/** The same as text, for in-memory round trips. */
std::string workloadToText(const Workload &wl);
Workload workloadFromText(std::string_view text);

} // namespace astra

#endif // ASTRA_WORKLOAD_ET_JSON_H_
