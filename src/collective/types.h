/**
 * @file
 * Collective communication types (paper §II-B, Fig. 2).
 */
#ifndef ASTRA_COLLECTIVE_TYPES_H_
#define ASTRA_COLLECTIVE_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "topology/topology.h"

namespace astra {

/** The four collective patterns of Fig. 2. */
enum class CollectiveType : uint8_t {
    ReduceScatter,
    AllGather,
    AllReduce,
    AllToAll,
};

const char *collectiveName(CollectiveType t);

/** Parse a collective name ("all_reduce", "allreduce", ...). */
CollectiveType parseCollectiveType(const std::string &name);

/** Collective scheduling policy for multi-rail execution (§V-A). */
enum class SchedPolicy {
    Baseline, //!< fixed ascending dimension order for every chunk.
    Themis,   //!< greedy bandwidth-aware per-chunk ordering [9].
};

/**
 * A collective operation request.
 *
 * `bytes` is the full tensor size: for All-Reduce / Reduce-Scatter /
 * All-to-All every NPU initially holds `bytes`; for All-Gather `bytes`
 * is the gathered result size (each NPU starts with bytes/group).
 */
struct CollectiveRequest
{
    CollectiveType type = CollectiveType::AllReduce;
    Bytes bytes = 0.0;
    /**
     * The group factors the collective spans, in the canonical
     * "Dim 1 first" order the baseline scheduler uses for the
     * reduce-scatter direction. Empty means all topology dimensions
     * (whole-system collective). Use {GroupDim{d, 0, 1}} for a whole
     * single dimension, or strided factors for sub-dimension groups.
     */
    std::vector<GroupDim> groups;
    /** Chunking factor for pipelining across dimension phases. */
    int chunks = 1;
    SchedPolicy policy = SchedPolicy::Baseline;
    /**
     * When true, each NPU processes its chunks strictly one after
     * another (the conservative hierarchical scheduler, which leaves
     * the pipelining bubbles of §V-A.1); when false all chunks enter
     * the pipeline immediately and per-dimension transmit ports are
     * kept busy.
     */
    bool serializeChunks = false;

    /** Convenience: collective over whole dimensions `dims`. */
    static CollectiveRequest
    overDims(CollectiveType type, Bytes bytes, std::vector<int> dims = {},
             int chunks = 1, SchedPolicy policy = SchedPolicy::Baseline)
    {
        CollectiveRequest req;
        req.type = type;
        req.bytes = bytes;
        for (int d : dims)
            req.groups.push_back(GroupDim{d, 0, 1});
        req.chunks = chunks;
        req.policy = policy;
        return req;
    }
};

} // namespace astra

#endif // ASTRA_COLLECTIVE_TYPES_H_
