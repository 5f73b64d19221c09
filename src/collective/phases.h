/**
 * @file
 * Multi-rail hierarchical phase construction (paper §II-B.2, §IV-B).
 *
 * A collective over an N-dimensional topology is decomposed into
 * per-dimension phases: an All-Reduce runs Reduce-Scatter over the
 * dimensions in the scheduler-chosen order, then All-Gather in the
 * reverse order. Each phase uses the building block's topology-aware
 * algorithm (Table I): Ring on Ring dims, Direct on FullyConnected
 * dims, Halving-Doubling on Switch dims (falling back to Direct when
 * the group size is not a power of two).
 *
 * Phase sizes follow the hierarchical shrink/grow rule: a
 * Reduce-Scatter phase over a group of size k shrinks the per-NPU
 * working set by k; All-Gather grows it back. `tensorBytes` always
 * records the *large* side of the phase (input for RS, output for
 * AG), so the bytes transmitted per NPU within the phase are
 * `(k-1)/k * tensorBytes` for every algorithm.
 */
#ifndef ASTRA_COLLECTIVE_PHASES_H_
#define ASTRA_COLLECTIVE_PHASES_H_

#include <vector>

#include "collective/types.h"
#include "topology/topology.h"

namespace astra {

/** The communication pattern a single phase executes. */
enum class PhaseOp {
    ReduceScatter,
    AllGather,
    AllToAll,
};

/** The per-dimension algorithm used inside a phase (Table I). */
enum class PhaseAlgorithm {
    Ring,            //!< (k-1) neighbour steps.
    Direct,          //!< one shot, k-1 parallel messages.
    HalvingDoubling, //!< log2(k) recursive exchange steps.
};

/** Pick the algorithm for a building block and group size (Table I). */
PhaseAlgorithm algorithmFor(BlockType type, int group_size);

/** One per-dimension phase of a multi-rail collective. */
struct Phase
{
    GroupDim group;              //!< dimension factor this phase spans.
    PhaseOp op = PhaseOp::ReduceScatter;
    PhaseAlgorithm algorithm = PhaseAlgorithm::Ring;
    Bytes tensorBytes = 0.0;     //!< large-side per-NPU data size.
};

/**
 * Build the ordered phase list for one chunk of a collective.
 *
 * @param topo        topology (for dimension sizes/types).
 * @param type        collective pattern.
 * @param chunk_bytes full tensor bytes carried by this chunk.
 * @param rs_order    normalized group factors in reduce-scatter
 *                    direction order; All-Gather phases run reversed.
 */
std::vector<Phase> buildPhases(const Topology &topo, CollectiveType type,
                               Bytes chunk_bytes,
                               const std::vector<GroupDim> &rs_order);

/** Bytes transmitted (sent) per NPU in a phase: (k-1)/k * tensorBytes
 *  for every algorithm. */
Bytes phaseSentBytes(const Phase &phase);

/** Number of algorithm steps in a phase (latency-chain length). */
int phaseSteps(const Phase &phase);

/**
 * Per-topology-dimension bytes sent by one NPU for a whole collective
 * executed with the given RS-direction order (sums over phases). Used
 * for the Table IV message-size accounting, where the paper reports
 * in+out traffic, i.e. 2x these values.
 */
std::vector<Bytes> perDimSentBytes(const Topology &topo,
                                   CollectiveType type, Bytes bytes,
                                   const std::vector<GroupDim> &rs_order);

/**
 * Allocation-free variant of perDimSentBytes() for per-chunk hot paths
 * (the Themis scheduler evaluates it for every candidate order of
 * every chunk): `sent` is resized to numDims and filled in place using
 * the closed-form shrink/grow accounting, without materializing Phase
 * objects.
 */
void perDimSentBytesInto(const Topology &topo, CollectiveType type,
                         Bytes bytes,
                         const std::vector<GroupDim> &rs_order,
                         std::vector<Bytes> &sent);

/** Expand "all topology dims, whole size" into normalized factors. */
std::vector<GroupDim> wholeTopologyGroups(const Topology &topo);

/** Normalize a request's groups (empty -> whole topology). */
std::vector<GroupDim> normalizedGroups(const Topology &topo,
                                       const CollectiveRequest &req);

} // namespace astra

#endif // ASTRA_COLLECTIVE_PHASES_H_
