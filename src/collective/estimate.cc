#include "collective/estimate.h"

#include <algorithm>

#include "collective/scheduler.h"

namespace astra {

TimeNs
phaseTime(const Topology &topo, const Phase &phase)
{
    const Dimension &dim = topo.dim(phase.group.dim);
    TimeNs serialization = txTime(phaseSentBytes(phase), dim.bandwidth);
    // Hop count per step: Ring steps hop to the next group member
    // (stride hops through the physical ring), Direct is one hop,
    // Switch traversals are two hops.
    int hops_per_step = 1;
    switch (dim.type) {
      case BlockType::Ring:
        hops_per_step = std::min(phase.group.stride,
                                 dim.size - phase.group.stride);
        hops_per_step = std::max(hops_per_step, 1);
        break;
      case BlockType::FullyConnected:
        hops_per_step = 1;
        break;
      case BlockType::Switch:
        hops_per_step = 2;
        break;
    }
    TimeNs latency =
        double(phaseSteps(phase)) * double(hops_per_step) * dim.latency;
    return serialization + latency;
}

CollectiveEstimate
estimateCollective(const Topology &topo, const CollectiveRequest &req)
{
    CollectiveEstimate est;
    est.sentPerDim.assign(static_cast<size_t>(topo.numDims()), 0.0);

    std::vector<GroupDim> groups = normalizedGroups(topo, req);
    Bytes chunk_bytes = req.bytes / double(req.chunks);

    // Replay the scheduler's per-chunk order choices.
    CollectiveScheduler scheduler(topo);
    std::vector<TimeNs> dim_load(static_cast<size_t>(topo.numDims()), 0.0);
    TimeNs sequential_full = 0.0; //!< one chunk, full collective bytes.
    TimeNs fill = 0.0;            //!< first chunk's sequential time.
    for (int c = 0; c < req.chunks; ++c) {
        std::vector<GroupDim> order =
            scheduler.nextOrder(groups, req.type, chunk_bytes, req.policy);
        std::vector<Phase> phases =
            buildPhases(topo, req.type, chunk_bytes, order);
        TimeNs chunk_seq = 0.0;
        for (const Phase &ph : phases) {
            TimeNs t = phaseTime(topo, ph);
            chunk_seq += t;
            dim_load[static_cast<size_t>(ph.group.dim)] +=
                txTime(phaseSentBytes(ph),
                       topo.dim(ph.group.dim).bandwidth);
            est.sentPerDim[static_cast<size_t>(ph.group.dim)] +=
                phaseSentBytes(ph);
        }
        if (c == 0)
            fill = chunk_seq;
        sequential_full += chunk_seq;
    }

    est.bottleneck =
        *std::max_element(dim_load.begin(), dim_load.end());
    est.sequential = sequential_full;
    if (req.chunks == 1 || req.serializeChunks) {
        // One chunk at a time: phases execute back to back.
        est.time = sequential_full;
    } else {
        // Pipeline: the bottleneck dimension's queue drains at its
        // bandwidth while the first chunk's fill hides the rest.
        est.time = std::max(est.bottleneck + fill, fill);
    }
    return est;
}

} // namespace astra
