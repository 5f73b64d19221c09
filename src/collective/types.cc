#include "collective/types.h"

#include <algorithm>
#include <cctype>

#include "common/logging.h"

namespace astra {

const char *
collectiveName(CollectiveType t)
{
    switch (t) {
      case CollectiveType::ReduceScatter: return "reduce_scatter";
      case CollectiveType::AllGather: return "all_gather";
      case CollectiveType::AllReduce: return "all_reduce";
      case CollectiveType::AllToAll: return "all_to_all";
    }
    return "?";
}

CollectiveType
parseCollectiveType(const std::string &name)
{
    std::string n;
    for (char c : name)
        if (c != '_' && c != '-')
            n += char(std::tolower(static_cast<unsigned char>(c)));
    if (n == "reducescatter")
        return CollectiveType::ReduceScatter;
    if (n == "allgather")
        return CollectiveType::AllGather;
    if (n == "allreduce")
        return CollectiveType::AllReduce;
    if (n == "alltoall")
        return CollectiveType::AllToAll;
    fatal("unknown collective type '%s'", name.c_str());
}

} // namespace astra
