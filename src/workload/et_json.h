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
 */
#ifndef ASTRA_WORKLOAD_ET_JSON_H_
#define ASTRA_WORKLOAD_ET_JSON_H_

#include <string>

#include "common/json.h"
#include "workload/et.h"

namespace astra {

/** Serialize a workload to the astra-sim-et-v2 JSON document. */
json::Value workloadToJson(const Workload &wl);

/** Parse an astra-sim-et-v2 document; fatal() on schema violations. */
Workload workloadFromJson(const json::Value &doc);

/** File helpers. */
void saveWorkload(const std::string &path, const Workload &wl);
Workload loadWorkload(const std::string &path);

} // namespace astra

#endif // ASTRA_WORKLOAD_ET_JSON_H_
