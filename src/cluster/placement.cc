#include "cluster/placement.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace astra {
namespace cluster {

namespace {

/** Slice decomposition: size = partial * prefixProduct(splitDim).
 *  splitDim == numDims (partial == 1) means "the whole cluster". */
struct SliceShape
{
    int splitDim = 0;
    int partial = 1;
};

std::vector<int>
prefixProducts(const Topology &topo)
{
    std::vector<int> p(static_cast<size_t>(topo.numDims()) + 1, 1);
    for (int d = 0; d < topo.numDims(); ++d)
        p[static_cast<size_t>(d) + 1] =
            p[static_cast<size_t>(d)] * topo.dim(d).size;
    return p;
}

std::optional<SliceShape>
shapeOf(const Topology &topo, int size)
{
    if (size < 1 || size > topo.npus())
        return std::nullopt;
    std::vector<int> p = prefixProducts(topo);
    if (size == topo.npus())
        return SliceShape{topo.numDims(), 1};
    // The unique j with P_j <= size < P_{j+1}.
    int j = 0;
    while (p[static_cast<size_t>(j) + 1] <= size)
        ++j;
    if (size % p[static_cast<size_t>(j)] != 0)
        return std::nullopt;
    int c = size / p[static_cast<size_t>(j)];
    if (topo.dim(j).size % c != 0)
        return std::nullopt;
    return SliceShape{j, c};
}

SliceShape
requireShape(const Topology &topo, int size)
{
    std::optional<SliceShape> shape = shapeOf(topo, size);
    ASTRA_USER_CHECK(shape.has_value(),
                     "job size %d is not a sub-hierarchy slice of %s: "
                     "sizes must be (product of the first j dimension "
                     "sizes) x c with c dividing dimension j's size "
                     "(use an explicit placement for irregular shapes)",
                     size, topo.notation().c_str());
    return *shape;
}

std::vector<int>
identityDimMap(int dims)
{
    std::vector<int> map(static_cast<size_t>(dims));
    for (int d = 0; d < dims; ++d)
        map[static_cast<size_t>(d)] = d;
    return map;
}

} // namespace

const char *
placementPolicyName(PlacementPolicy p)
{
    switch (p) {
      case PlacementPolicy::Contiguous: return "contiguous";
      case PlacementPolicy::Spread: return "spread";
      case PlacementPolicy::Explicit: return "explicit";
      case PlacementPolicy::AvoidDegraded: return "avoid_degraded";
      case PlacementPolicy::AntiAffinity: return "anti_affinity";
    }
    return "?";
}

PlacementPolicy
parsePlacementPolicy(const std::string &name)
{
    if (name == "contiguous")
        return PlacementPolicy::Contiguous;
    if (name == "spread" || name == "striped")
        return PlacementPolicy::Spread;
    if (name == "explicit")
        return PlacementPolicy::Explicit;
    if (name == "avoid_degraded")
        return PlacementPolicy::AvoidDegraded;
    if (name == "anti_affinity")
        return PlacementPolicy::AntiAffinity;
    fatal("unknown placement policy '%s' (contiguous | spread | "
          "explicit | avoid_degraded | anti_affinity)",
          name.c_str());
}

std::string
JobPlacement::describe() const
{
    char buf[96];
    if (policy == PlacementPolicy::Contiguous && !globalOf.empty()) {
        std::snprintf(buf, sizeof(buf), "contiguous[%d..%d]",
                      globalOf.front(), globalOf.back());
        return buf;
    }
    std::string out = placementPolicyName(policy);
    out += '{';
    for (size_t i = 0; i < globalOf.size(); ++i) {
        if (i == 4 && globalOf.size() > 5) {
            out += ",..";
            break;
        }
        if (i > 0)
            out += ',';
        std::snprintf(buf, sizeof(buf), "%d", globalOf[i]);
        out += buf;
    }
    out += '}';
    return out;
}

bool
sliceCompatible(const Topology &topo, int size)
{
    return shapeOf(topo, size).has_value();
}

Topology
sliceTopology(const Topology &topo, int size)
{
    SliceShape shape = requireShape(topo, size);
    std::vector<Dimension> dims;
    for (int d = 0; d < shape.splitDim; ++d)
        dims.push_back(topo.dim(d));
    if (shape.partial > 1) {
        Dimension part = topo.dim(shape.splitDim);
        part.size = shape.partial;
        dims.push_back(part);
    }
    if (dims.empty()) {
        // Single-NPU job: a degenerate one-dimension topology (no
        // sends can occur, but builders need a shape to validate).
        Dimension solo = topo.dim(0);
        solo.size = 1;
        dims.push_back(solo);
    }
    return Topology(std::move(dims));
}

PlacementManager::PlacementManager(const Topology &topo)
    : topo_(topo), busy_(static_cast<size_t>(topo.npus()), 0),
      faulted_(static_cast<size_t>(topo.npus()), 0),
      spare_(static_cast<size_t>(topo.npus()), 0), free_(topo.npus())
{
}

void
PlacementManager::markFaulted(NpuId id, bool faulted)
{
    ASTRA_ASSERT(id >= 0 && id < topo_.npus(), "NPU %d out of range", id);
    faulted_[static_cast<size_t>(id)] = faulted ? 1 : 0;
}

bool
PlacementManager::isFaulted(NpuId id) const
{
    ASTRA_ASSERT(id >= 0 && id < topo_.npus(), "NPU %d out of range", id);
    return faulted_[static_cast<size_t>(id)] != 0;
}

int
PlacementManager::faultedCount() const
{
    int n = 0;
    for (uint8_t f : faulted_)
        n += f;
    return n;
}

bool
PlacementManager::isBusy(NpuId id) const
{
    ASTRA_ASSERT(id >= 0 && id < topo_.npus(), "NPU %d out of range", id);
    return busy_[static_cast<size_t>(id)] != 0;
}

bool
PlacementManager::allFree(const std::vector<NpuId> &ids) const
{
    for (NpuId id : ids)
        if (busy_[static_cast<size_t>(id)] ||
            faulted_[static_cast<size_t>(id)] ||
            spare_[static_cast<size_t>(id)])
            return false;
    return true;
}

JobPlacement
PlacementManager::claim(PlacementPolicy policy, std::vector<NpuId> ids,
                        std::vector<int> dim_map)
{
    for (NpuId id : ids) {
        ASTRA_ASSERT(!busy_[static_cast<size_t>(id)],
                     "claiming busy NPU %d", id);
        busy_[static_cast<size_t>(id)] = 1;
    }
    free_ -= static_cast<int>(ids.size());
    JobPlacement placement;
    placement.policy = policy;
    placement.globalOf = std::move(ids);
    placement.dimMap = std::move(dim_map);
    return placement;
}

std::optional<JobPlacement>
PlacementManager::tryPlace(int size, PlacementPolicy policy,
                           const SliceScorer &score)
{
    ASTRA_USER_CHECK(policy != PlacementPolicy::Explicit,
                     "tryPlace handles sliced policies only (explicit "
                     "-> tryPlaceExplicit)");
    SliceShape shape = requireShape(topo_, size);
    if (size > free_)
        return std::nullopt;

    std::vector<int> p = prefixProducts(topo_);
    int job_dims = shape.splitDim + (shape.partial > 1 ? 1 : 0);
    if (job_dims == 0)
        job_dims = 1; // single-NPU job (degenerate dimension).

    std::vector<NpuId> ids(static_cast<size_t>(size));
    std::vector<NpuId> best;
    double bestScore = 0.0;
    // Without a scorer every candidate costs 0, so the first free one
    // wins.
    auto consider = [&] {
        if (!allFree(ids))
            return;
        double s = score ? score(ids) : 0.0;
        if (best.empty() || s < bestScore) {
            best = ids;
            bestScore = s;
        }
    };

    bool partial = shape.partial > 1;
    // Aligned blocks [base, base + size) at multiples of the job size.
    // Alignment guarantees the block is a coordinate box of the
    // hierarchy.
    if (policy != PlacementPolicy::Spread || !partial) {
        for (NpuId base = 0; base + size <= topo_.npus(); base += size) {
            for (int l = 0; l < size; ++l)
                ids[static_cast<size_t>(l)] = base + l;
            consider();
        }
    }
    // Stripes of the partial dimension: c coordinates spaced s apart.
    // Anti-affinity considers them too: striping across the split
    // dimension is how a job straddles failure domains.
    if ((policy == PlacementPolicy::Spread ||
         policy == PlacementPolicy::AntiAffinity) &&
        partial) {
        int pj = p[static_cast<size_t>(shape.splitDim)];
        int pj1 = p[static_cast<size_t>(shape.splitDim) + 1];
        int s = topo_.dim(shape.splitDim).size / shape.partial;
        for (int high = 0; high * pj1 < topo_.npus(); ++high) {
            for (int a = 0; a < s; ++a) {
                for (int i = 0; i < shape.partial; ++i)
                    for (int low = 0; low < pj; ++low)
                        ids[static_cast<size_t>(i * pj + low)] =
                            high * pj1 + (a + i * s) * pj + low;
                consider();
            }
        }
    }

    if (best.empty())
        return std::nullopt;
    return claim(policy, std::move(best), identityDimMap(job_dims));
}

void
PlacementManager::reserveSpares(const std::vector<NpuId> &ids)
{
    for (NpuId id : ids) {
        ASTRA_USER_CHECK(id >= 0 && id < topo_.npus(),
                         "spare NPU %d out of range (cluster has %d)",
                         id, topo_.npus());
        ASTRA_USER_CHECK(!busy_[static_cast<size_t>(id)],
                         "spare NPU %d is already placed", id);
        ASTRA_USER_CHECK(!spare_[static_cast<size_t>(id)],
                         "spare NPU %d reserved twice", id);
        spare_[static_cast<size_t>(id)] = 1;
    }
    free_ -= static_cast<int>(ids.size());
}

std::optional<JobPlacement>
PlacementManager::trySpareSwap(const JobPlacement &placement)
{
    std::vector<size_t> failedRanks;
    for (size_t r = 0; r < placement.globalOf.size(); ++r)
        if (faulted_[static_cast<size_t>(placement.globalOf[r])])
            failedRanks.push_back(r);
    ASTRA_ASSERT(!failedRanks.empty(),
                 "spare swap on a placement with no faulted NPUs");

    std::vector<NpuId> spares;
    for (NpuId id = 0;
         id < topo_.npus() && spares.size() < failedRanks.size(); ++id)
        if (spare_[static_cast<size_t>(id)] &&
            !faulted_[static_cast<size_t>(id)])
            spares.push_back(id);
    if (spares.size() < failedRanks.size())
        return std::nullopt;

    JobPlacement swapped;
    swapped.policy = PlacementPolicy::Explicit;
    swapped.globalOf = placement.globalOf;
    // Unaligned after the swap: translated sends fall back to
    // dimension-ordered routing (kAutoRoute), like any explicit
    // placement.
    swapped.dimMap.clear();
    for (size_t i = 0; i < failedRanks.size(); ++i) {
        NpuId failed = placement.globalOf[failedRanks[i]];
        NpuId fresh = spares[i];
        ASTRA_ASSERT(busy_[static_cast<size_t>(failed)],
                     "swapping NPU %d the job does not hold", failed);
        busy_[static_cast<size_t>(failed)] = 0;
        ++free_; // Back to the general pool (still marked faulted).
        spare_[static_cast<size_t>(fresh)] = 0; // Consumed for good.
        busy_[static_cast<size_t>(fresh)] = 1;
        swapped.globalOf[failedRanks[i]] = fresh;
    }
    return swapped;
}

int
PlacementManager::spareCount() const
{
    int n = 0;
    for (uint8_t s : spare_)
        n += s;
    return n;
}

int
PlacementManager::spareFreeCount() const
{
    int n = 0;
    for (size_t i = 0; i < spare_.size(); ++i)
        if (spare_[i] && !faulted_[i])
            ++n;
    return n;
}

bool
PlacementManager::isSpare(NpuId id) const
{
    ASTRA_ASSERT(id >= 0 && id < topo_.npus(), "NPU %d out of range", id);
    return spare_[static_cast<size_t>(id)] != 0;
}

std::optional<JobPlacement>
PlacementManager::tryPlaceExplicit(const std::vector<NpuId> &npus)
{
    ASTRA_USER_CHECK(!npus.empty(), "explicit placement with no NPUs");
    std::vector<uint8_t> seen(static_cast<size_t>(topo_.npus()), 0);
    for (NpuId id : npus) {
        ASTRA_USER_CHECK(id >= 0 && id < topo_.npus(),
                         "explicit placement NPU %d out of range "
                         "(cluster has %d)",
                         id, topo_.npus());
        ASTRA_USER_CHECK(!seen[static_cast<size_t>(id)],
                         "explicit placement lists NPU %d twice", id);
        seen[static_cast<size_t>(id)] = 1;
    }
    if (!allFree(npus))
        return std::nullopt;
    // No dimension alignment is assumed: the rank view routes every
    // translated send dimension-ordered (kAutoRoute).
    return claim(PlacementPolicy::Explicit, npus, {});
}

void
PlacementManager::release(const JobPlacement &placement)
{
    for (NpuId id : placement.globalOf) {
        ASTRA_ASSERT(busy_[static_cast<size_t>(id)],
                     "releasing free NPU %d", id);
        busy_[static_cast<size_t>(id)] = 0;
    }
    free_ += static_cast<int>(placement.globalOf.size());
}

} // namespace cluster
} // namespace astra
