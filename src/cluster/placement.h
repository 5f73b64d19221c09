/**
 * @file
 * Job placement over the multi-dimensional hierarchy (multi-tenant
 * cluster simulation, docs/cluster.md).
 *
 * A placement maps a job's *local* NPU ids 0..n-1 onto cluster NPUs.
 * Jobs see a private "job topology" (a sub-hierarchy slice of the
 * cluster topology) so workload builders and the collective engine run
 * unmodified in job-local id space; the placement supplies the
 * local->global id table and a job-dim -> cluster-dim map used by the
 * rank-translation network view (cluster/rank_view.h).
 *
 * Sliced placements require a *hierarchy-compatible* job size: with
 * P_j the product of the first j dimension sizes, the size must be
 * c * P_j for some split dimension j and a factor c dividing that
 * dimension's size. The job topology is then dims [0, j) in full plus
 * (when c > 1) a partial outer dimension of size c with the split
 * dimension's block type and link parameters.
 *
 *  - Contiguous: the c coordinates of the split dimension are adjacent
 *    and the whole slice is one aligned global-id range [base,
 *    base + n). Ring routing between slice members never leaves the
 *    slice, so two contiguous jobs share no links (the isolation
 *    baseline).
 *  - Spread (striped): the c coordinates are spaced size_j / c apart,
 *    maximally interleaving jobs. A one-hop job-ring send traverses
 *    size_j / c physical hops *through other tenants' regions* — the
 *    classic fragmented-placement interference the congestion-aware
 *    backends resolve.
 *  - Explicit: an arbitrary NPU list plus a caller-supplied job
 *    topology; no dimension alignment is assumed, so every translated
 *    send uses dimension-ordered routing on the cluster fabric.
 */
#ifndef ASTRA_CLUSTER_PLACEMENT_H_
#define ASTRA_CLUSTER_PLACEMENT_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "topology/topology.h"

namespace astra {
namespace cluster {

/** See file comment. */
enum class PlacementPolicy {
    Contiguous,    //!< aligned sub-hierarchy slice (default).
    Spread,        //!< striped across the split dimension.
    Explicit,      //!< caller-provided NPU list + job topology.
    AvoidDegraded, //!< contiguous candidates scored by fault state
                   //!< (docs/fault.md "fault-aware placement").
    AntiAffinity,  //!< contiguous + striped candidates scored by
                   //!< failure-domain concentration.
};

const char *placementPolicyName(PlacementPolicy p);
PlacementPolicy parsePlacementPolicy(const std::string &name);

/** A realized mapping of one job onto cluster NPUs. */
struct JobPlacement
{
    PlacementPolicy policy = PlacementPolicy::Contiguous;
    /** Local NPU id -> cluster NPU id (dense, size = job size). */
    std::vector<NpuId> globalOf;
    /**
     * Job dimension -> cluster dimension, or -1 when unaligned. For
     * sliced placements this is the identity prefix (a send in job
     * dim d maps to a pair differing only in cluster dim d); explicit
     * placements carry all -1 and fall back to kAutoRoute.
     */
    std::vector<int> dimMap;

    int size() const { return static_cast<int>(globalOf.size()); }

    /** Human-readable summary ("contiguous@16" / "spread@0+4" ...). */
    std::string describe() const;
};

/**
 * The job topology a sliced placement of `size` NPUs presents to its
 * job (see file comment); fatal() if `size` is not
 * hierarchy-compatible with `topo`. Deterministic and placement-
 * independent, so workloads can be built before admission.
 */
Topology sliceTopology(const Topology &topo, int size);

/** True when `size` decomposes as c * P_j (no fatal); the check
 *  tryPlace and addJob validation share. */
bool sliceCompatible(const Topology &topo, int size);

/**
 * Free-NPU accounting plus the placement search. Not thread-safe; one
 * instance per ClusterSimulator.
 */
class PlacementManager
{
  public:
    explicit PlacementManager(const Topology &topo);

    /** Candidate-slice cost function for the scored policies: lower is
     *  better. Only called on fully free candidates. */
    using SliceScorer =
        std::function<double(const std::vector<NpuId> &)>;

    /**
     * Try to place a sliced job of `size` NPUs under any policy but
     * Explicit. The candidates are the aligned contiguous blocks
     * (every policy except Spread on a partial split dimension) and
     * the spread stripes (Spread and AntiAffinity on a partial split
     * dimension). Claims the first fully free candidate or, given
     * `score`, the cheapest one; a tie goes to the earlier candidate.
     * Returns nullopt when no candidate is free; fatal() on
     * hierarchy-incompatible sizes.
     */
    std::optional<JobPlacement> tryPlace(int size, PlacementPolicy policy,
                                         const SliceScorer &score = {});

    /** Try to claim an explicit NPU list; fatal() on invalid ids or
     *  duplicates, nullopt when any of them is busy. */
    std::optional<JobPlacement>
    tryPlaceExplicit(const std::vector<NpuId> &npus);

    /** Return a placement's NPUs to the free pool. */
    void release(const JobPlacement &placement);

    // ---- Spare pool (docs/fault.md "Spare-capacity restart") ----
    /**
     * Reserve `ids` as hot spares: excluded from every placement
     * search until consumed by trySpareSwap. fatal() if any id is
     * busy or already reserved.
     */
    void reserveSpares(const std::vector<NpuId> &ids);

    /**
     * Swap every currently-faulted NPU of `placement` for a healthy
     * reserved spare (ascending spare id order). On success the
     * consumed spares leave the pool, the faulted NPUs return to the
     * general pool, and the returned placement keeps the job's
     * local-rank order with policy Explicit (the patched id set is no
     * longer a hierarchy-aligned slice, so translated sends fall back
     * to dimension-ordered routing). Returns nullopt — and changes
     * nothing — when the healthy spare pool cannot cover the failure.
     */
    std::optional<JobPlacement>
    trySpareSwap(const JobPlacement &placement);

    /** Spares still reserved (consumed ones excluded). */
    int spareCount() const;
    /** Reserved spares that are currently healthy. */
    int spareFreeCount() const;
    bool isSpare(NpuId id) const;

    /**
     * Mark an NPU (un)usable for placement (fault injection,
     * docs/fault.md). Orthogonal to busy_: a faulted NPU may still be
     * held by a running job (the cluster simulator decides that job's
     * fate); it just cannot be handed to *new* placements until it
     * recovers.
     */
    void markFaulted(NpuId id, bool faulted);
    bool isFaulted(NpuId id) const;
    int faultedCount() const;

    int freeCount() const { return free_; }
    int totalCount() const { return static_cast<int>(busy_.size()); }
    bool isBusy(NpuId id) const;

  private:
    bool allFree(const std::vector<NpuId> &ids) const;
    JobPlacement claim(PlacementPolicy policy, std::vector<NpuId> ids,
                       std::vector<int> dim_map);

    const Topology &topo_;
    std::vector<uint8_t> busy_;
    std::vector<uint8_t> faulted_;
    std::vector<uint8_t> spare_;
    int free_;
};

} // namespace cluster
} // namespace astra

#endif // ASTRA_CLUSTER_PLACEMENT_H_
