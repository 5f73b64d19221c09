/**
 * @file
 * The benchmark's workloads, each written as a sweep specification
 * (a single-sim workload is a one-row sweep whose only axis is the
 * input the seed perturbs). See perfbench/README.md for why each
 * workload was chosen.
 */
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"

namespace perfbench {

/** The seed whose simulated results perfbench/expected.json records.
 *  Any other seed perturbs the inputs within the workload's shape. */
constexpr uint64_t kDefaultSeed = 0;

/**
 * Sweep spec document of workload `name` under `seed`. `trace_file`
 * is where a tracing workload writes its Chrome JSON. fatal() on an
 * unknown name.
 */
astra::json::Value workloadSpec(const std::string &name, uint64_t seed,
                                const std::string &trace_file);

/** Rows of the default-seed spec that every run re-simulates first,
 *  against the recorded results, whatever its seed. */
std::vector<size_t> gateRows(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
