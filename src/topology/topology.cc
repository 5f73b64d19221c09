#include "topology/topology.h"

#include <algorithm>
#include <climits>
#include <cstdlib>

#include "common/logging.h"

namespace astra {

const char *
blockShortName(BlockType t)
{
    switch (t) {
      case BlockType::Ring: return "R";
      case BlockType::FullyConnected: return "FC";
      case BlockType::Switch: return "SW";
    }
    return "?";
}

const char *
blockLongName(BlockType t)
{
    switch (t) {
      case BlockType::Ring: return "Ring";
      case BlockType::FullyConnected: return "FullyConnected";
      case BlockType::Switch: return "Switch";
    }
    return "?";
}

Topology::Topology(std::vector<Dimension> dims) : dims_(std::move(dims))
{
    ASTRA_USER_CHECK(!dims_.empty(), "topology needs at least 1 dimension");
    stride_.resize(dims_.size());
    for (size_t d = 0; d < dims_.size(); ++d) {
        ASTRA_USER_CHECK(dims_[d].size >= 1,
                         "dimension %zu has invalid size %d", d + 1,
                         dims_[d].size);
        ASTRA_USER_CHECK(dims_[d].bandwidth > 0.0,
                         "dimension %zu has non-positive bandwidth", d + 1);
        ASTRA_USER_CHECK(dims_[d].latency >= 0.0,
                         "dimension %zu has negative latency", d + 1);
        ASTRA_USER_CHECK(dims_[d].size <= INT_MAX / npus_,
                         "topology has more than %d NPUs", INT_MAX);
        stride_[d] = npus_;
        npus_ *= dims_[d].size;
    }
}

const Dimension &
Topology::dim(int d) const
{
    ASTRA_ASSERT(d >= 0 && d < numDims(), "dimension index %d out of range",
                 d);
    return dims_[static_cast<size_t>(d)];
}

std::vector<int>
Topology::coordsOf(NpuId id) const
{
    ASTRA_ASSERT(id >= 0 && id < npus_, "NPU id %d out of range", id);
    std::vector<int> coords(dims_.size());
    int rest = id;
    for (size_t d = 0; d < dims_.size(); ++d) {
        coords[d] = rest % dims_[d].size;
        rest /= dims_[d].size;
    }
    return coords;
}

NpuId
Topology::idOf(const std::vector<int> &coords) const
{
    ASTRA_ASSERT(coords.size() == dims_.size(),
                 "coordinate arity %zu != dims %zu", coords.size(),
                 dims_.size());
    NpuId id = 0;
    for (size_t d = 0; d < dims_.size(); ++d) {
        ASTRA_ASSERT(coords[d] >= 0 && coords[d] < dims_[d].size,
                     "coordinate %d out of range in dim %zu", coords[d],
                     d + 1);
        id += coords[d] * stride_[d];
    }
    return id;
}

int
Topology::strideOf(int d) const
{
    ASTRA_ASSERT(d >= 0 && d < numDims(), "dim %d out of range", d);
    return stride_[static_cast<size_t>(d)];
}

int
Topology::coordInDim(NpuId id, int d) const
{
    ASTRA_ASSERT(id >= 0 && id < npus_, "NPU id %d out of range", id);
    ASTRA_ASSERT(d >= 0 && d < numDims(), "dim %d out of range", d);
    return (id / stride_[d]) % dims_[d].size;
}

std::vector<NpuId>
Topology::groupInDim(NpuId id, int d) const
{
    ASTRA_ASSERT(d >= 0 && d < numDims(), "dim %d out of range", d);
    int base = id - coordInDim(id, d) * stride_[d];
    std::vector<NpuId> group;
    group.reserve(static_cast<size_t>(dims_[d].size));
    for (int i = 0; i < dims_[d].size; ++i)
        group.push_back(base + i * stride_[d]);
    return group;
}

NpuId
Topology::peerInDim(NpuId id, int d, int offset) const
{
    int k = dim(d).size;
    int coord = coordInDim(id, d);
    int peer_coord = ((coord + offset) % k + k) % k;
    return id + (peer_coord - coord) * stride_[d];
}

int
Topology::hopsInDim(int coord_a, int coord_b, int d) const
{
    if (coord_a == coord_b)
        return 0;
    switch (dim(d).type) {
      case BlockType::Ring: {
        int k = dim(d).size;
        int fwd = ((coord_b - coord_a) % k + k) % k;
        return std::min(fwd, k - fwd);
      }
      case BlockType::FullyConnected:
        return 1;
      case BlockType::Switch:
        return 2;
    }
    return 0;
}

int
Topology::hopsBetween(NpuId a, NpuId b) const
{
    int hops = 0;
    for (int d = 0; d < numDims(); ++d)
        hops += hopsInDim(coordInDim(a, d), coordInDim(b, d), d);
    return hops;
}

GroupDim
Topology::normalizeGroup(const GroupDim &g) const
{
    ASTRA_USER_CHECK(g.dim >= 0 && g.dim < numDims(),
                     "group dimension %d out of range", g.dim);
    GroupDim out = g;
    int k = dim(g.dim).size;
    if (out.size == 0)
        out.size = k;
    ASTRA_USER_CHECK(out.stride >= 1, "group stride must be >= 1");
    ASTRA_USER_CHECK(out.size >= 1 && out.size <= k,
                     "group size %d does not fit dimension of size %d",
                     out.size, k);
    ASTRA_USER_CHECK(k % (out.size * out.stride) == 0 || out.size == k,
                     "group (size=%d, stride=%d) does not tile a "
                     "dimension of size %d",
                     out.size, out.stride, k);
    return out;
}

int
Topology::posInGroup(NpuId id, const GroupDim &g) const
{
    int coord = coordInDim(id, g.dim);
    return (coord / g.stride) % g.size;
}

NpuId
Topology::peerInGroup(NpuId id, const GroupDim &g, int offset) const
{
    int pos = posInGroup(id, g);
    int peer_pos = ((pos + offset) % g.size + g.size) % g.size;
    int coord_delta = (peer_pos - pos) * g.stride;
    return id + coord_delta * strideOf(g.dim);
}

NpuId
Topology::zeroGroup(NpuId id, const GroupDim &g) const
{
    int pos = posInGroup(id, g);
    return id - pos * g.stride * strideOf(g.dim);
}

std::string
Topology::shapeString() const
{
    std::string s;
    for (size_t d = 0; d < dims_.size(); ++d) {
        if (d)
            s += "_";
        s += std::to_string(dims_[d].size);
    }
    return s;
}

std::string
Topology::notation() const
{
    std::string s;
    for (size_t d = 0; d < dims_.size(); ++d) {
        if (d)
            s += "_";
        s += blockLongName(dims_[d].type);
        s += "(" + std::to_string(dims_[d].size) + ")";
    }
    return s;
}

GBps
Topology::totalBandwidthPerNpu() const
{
    GBps total = 0.0;
    for (const Dimension &d : dims_)
        total += d.bandwidth;
    return total;
}

} // namespace astra
