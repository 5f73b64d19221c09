/**
 * @file
 * The Memory API of paper §IV-D (Fig. 1(c)/(d)).
 *
 * The Memory API takes tensor location (local or remote), tensor
 * size, and the memory system design, and returns the time to load or
 * store the tensor. Remote models assume the synchronous-training
 * access pattern of the paper's Fig. 6: every GPU in the system
 * issues the access together, so the returned time already accounts
 * for the shared-fabric load.
 */
#ifndef ASTRA_MEMORY_MEMORY_API_H_
#define ASTRA_MEMORY_MEMORY_API_H_

#include <cstdint>

#include "common/units.h"

namespace astra {

/** Where a tensor lives (ET memory-node metadata). */
enum class MemLocation : uint8_t {
    Local,  //!< NPU-attached HBM.
    Remote, //!< disaggregated pool / CPU+NVMe tier.
};

/** Access direction. */
enum class MemOp : uint8_t {
    Load,
    Store,
};

const char *memLocationName(MemLocation l);
const char *memOpName(MemOp op);

/**
 * Abstract memory timing interface.
 *
 * @param op       load or store.
 * @param bytes    per-GPU tensor bytes.
 * @param fused    request in-switch collective fusion (§IV-D.3):
 *                 parameters are gathered while being loaded
 *                 (All-Gather) or sharded while being stored
 *                 (Reduce-Scatter). Only meaningful for pooled
 *                 remote memories that support it.
 */
class MemoryApi
{
  public:
    virtual ~MemoryApi() = default;

    virtual TimeNs accessTime(MemOp op, Bytes bytes,
                              bool fused = false) const = 0;

    /** True if the model performs collective fusion in the fabric. */
    virtual bool supportsInSwitchCollectives() const { return false; }
};

} // namespace astra

#endif // ASTRA_MEMORY_MEMORY_API_H_
