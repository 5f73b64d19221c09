/** @file Unit tests for the interned StringTable. */
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/string_table.h"

namespace astra {
namespace {

TEST(StringTable, IdsAreDenseInFirstUseOrder)
{
    StringTable t{"", "first"};
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.intern(""), 0u);
    EXPECT_EQ(t.intern("first"), 1u);
    EXPECT_EQ(t.intern("second"), 2u);
    EXPECT_EQ(t.intern("first"), 1u);
    EXPECT_EQ(t[2], "second");
    EXPECT_EQ(t.size(), 3u);
}

TEST(StringTable, ResolvesThroughManyRehashes)
{
    // Long names (past any small-string buffer) and short ones, interned
    // twice each across index growth.
    StringTable t;
    auto name = [](int i) {
        return (i % 2 ? "a long node name past the small buffer " : "n") +
               std::to_string(i);
    };
    for (int i = 0; i < 5000; ++i)
        ASSERT_EQ(t.intern(name(i)), uint32_t(i));
    for (int i = 0; i < 5000; ++i) {
        ASSERT_EQ(t.intern(name(i)), uint32_t(i));
        ASSERT_EQ(t[uint32_t(i)], name(i));
    }
    EXPECT_EQ(t.size(), 5000u);
}

TEST(StringTable, CopiesAndMovesKeepTheirIndex)
{
    StringTable a;
    for (int i = 0; i < 100; ++i)
        a.intern("s" + std::to_string(i));
    StringTable copy = a;
    StringTable moved = std::move(a);
    for (StringTable *t : {&copy, &moved}) {
        EXPECT_EQ(t->intern("s42"), 42u);
        EXPECT_EQ(t->intern("new"), 100u);
    }
}

} // namespace
} // namespace astra
