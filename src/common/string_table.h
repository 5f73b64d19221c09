/**
 * @file
 * Interned strings: each distinct string is stored once and named by a
 * dense uint32_t id, in first-use order. Execution traces intern node
 * names and group lists (workload/et.h), the tracer its dynamic span
 * names (trace/tracer.h), so a million records cost a million ids, not
 * a million strings.
 */
#ifndef ASTRA_COMMON_STRING_TABLE_H_
#define ASTRA_COMMON_STRING_TABLE_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace astra {

/** See file comment. */
class StringTable
{
  public:
    /** `first` get ids 0, 1, ... in order. */
    StringTable(std::initializer_list<std::string_view> first = {})
    {
        for (std::string_view s : first)
            intern(s);
    }

    /** Id of `s`, added on first use. */
    uint32_t
    intern(std::string_view s)
    {
        uint32_t &slot = slots_[slotOf(s)];
        if (slot != 0)
            return slot - 1;
        const auto id = static_cast<uint32_t>(strings_.size());
        strings_.emplace_back(s);
        slot = id + 1;
        if (2 * strings_.size() > slots_.size())
            rehash(2 * slots_.size());
        return id;
    }

    const std::string &operator[](uint32_t id) const { return strings_[id]; }
    size_t size() const { return strings_.size(); }

    /** Heap bytes (telemetry footprint protocol): string slots and the
     *  index. */
    size_t
    bytesInUse() const
    {
        return strings_.capacity() * sizeof(std::string) +
               slots_.capacity() * sizeof(uint32_t);
    }

  private:
    /** The index slot that holds `s`'s id + 1, or the empty (0) slot
     *  where it belongs: open addressing with linear probing over a
     *  power-of-two table at most half full. The strings themselves
     *  live only in strings_. */
    size_t
    slotOf(std::string_view s) const
    {
        const size_t mask = slots_.size() - 1;
        size_t i = std::hash<std::string_view>()(s) & mask;
        while (slots_[i] != 0 && strings_[slots_[i] - 1] != s)
            i = (i + 1) & mask;
        return i;
    }

    void
    rehash(size_t size)
    {
        slots_.assign(size, 0);
        for (size_t id = 0; id < strings_.size(); ++id)
            slots_[slotOf(strings_[id])] = static_cast<uint32_t>(id + 1);
    }

    std::vector<std::string> strings_;
    std::vector<uint32_t> slots_ = std::vector<uint32_t>(8);
};

} // namespace astra

#endif // ASTRA_COMMON_STRING_TABLE_H_
