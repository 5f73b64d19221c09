/** @file Unit tests for the topology notation parser (Fig. 3(c)). */
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "telemetry/telemetry.h"
#include "topology/notation.h"

namespace astra {
namespace {

/** Every preset name and the notation it stands for. */
const std::vector<std::pair<std::string, std::string>> kPresetTable = {
    {"w1d-350", "Switch(512,350)"},
    {"w1d-500", "Switch(512,500)"},
    {"w1d-600", "Switch(512,600)"},
    {"w2d", "Switch(32,250)_Switch(16,250)"},
    {"conv3d", "Ring(16,200)_FC(8,100)_Switch(4,50)"},
    {"conv4d", "Ring(2,250)_FC(8,200)_Ring(8,100)_Switch(4,50)"},
    {"dgx1", "Ring(4,150)_Switch(2,25)"},
    {"dgx2", "Switch(16,150)_Switch(2,12.5)"},
    {"dgxa100", "Switch(8,300)_Switch(2,25)"},
    {"tpuv2", "Ring(4,62.5)_Ring(2,62.5)"},
    {"tpuv3", "Ring(4,62.5)_Ring(2,62.5)"},
    {"tpuv4", "Ring(4,56)_Ring(2,56)_Ring(2,56)"},
    {"dragonfly", "FC(4,100)_FC(2,50)_FC(2,25)"},
    {"habana", "FC(4,100)_Switch(2,25)"},
    {"zion", "Ring(4,100)_Switch(2,25)"},
};

void
expectSameDims(const Topology &a, const Topology &b, const std::string &what)
{
    ASSERT_EQ(a.numDims(), b.numDims()) << what;
    for (int d = 0; d < a.numDims(); ++d) {
        EXPECT_EQ(a.dim(d).type, b.dim(d).type) << what << " dim " << d;
        EXPECT_EQ(a.dim(d).size, b.dim(d).size) << what << " dim " << d;
        EXPECT_EQ(a.dim(d).bandwidth, b.dim(d).bandwidth)
            << what << " dim " << d;
        EXPECT_EQ(a.dim(d).latency, b.dim(d).latency)
            << what << " dim " << d;
    }
}

TEST(Notation, EveryPresetIsItsTableNotation)
{
    ASSERT_EQ(kPresetTable.size(), 15u);
    for (const auto &[name, notation] : kPresetTable) {
        Topology preset = parseTopology(name);
        expectSameDims(preset, parseTopology(notation), name);
        // Names are case-insensitive.
        std::string upper = name;
        for (char &c : upper)
            c = char(std::toupper(static_cast<unsigned char>(c)));
        expectSameDims(parseTopology(upper), preset, upper);
        // The manifest's notation reads back as the same topology.
        expectSameDims(parseTopology(telemetry::topologyNotation(preset)),
                       preset, name + " round trip");
    }
}

TEST(Notation, ParsesLongAndShortNames)
{
    Topology t1 = parseTopology("Ring(4)_Switch(2)");
    EXPECT_EQ(t1.numDims(), 2);
    EXPECT_EQ(t1.dim(0).type, BlockType::Ring);
    EXPECT_EQ(t1.dim(0).size, 4);
    EXPECT_EQ(t1.dim(1).type, BlockType::Switch);
    EXPECT_EQ(t1.dim(1).size, 2);

    Topology t2 = parseTopology("R(4)_SW(2)");
    EXPECT_EQ(t2.notation(), t1.notation());

    Topology t3 = parseTopology("fc(8)");
    EXPECT_EQ(t3.dim(0).type, BlockType::FullyConnected);
}

TEST(Notation, PaperExamplesFromFig3)
{
    // Fully-populated DragonFly.
    Topology df = parseTopology("FC(4)_FC(2)_FC(2)");
    EXPECT_EQ(df.npus(), 16);
    // 3-D torus.
    Topology torus = parseTopology("R(4)_R(2)_R(2)");
    EXPECT_EQ(torus.npus(), 16);
    for (int d = 0; d < 3; ++d)
        EXPECT_EQ(torus.dim(d).type, BlockType::Ring);
    // Arbitrary 6-D network is representable.
    Topology six = parseTopology("R(2)_R(2)_FC(2)_SW(2)_R(2)_SW(2)");
    EXPECT_EQ(six.numDims(), 6);
    EXPECT_EQ(six.npus(), 64);
}

TEST(Notation, InlineBandwidthAndLatency)
{
    Topology t = parseTopology("R(4,250)_SW(2,50,700)");
    EXPECT_DOUBLE_EQ(t.dim(0).bandwidth, 250.0);
    EXPECT_DOUBLE_EQ(t.dim(1).bandwidth, 50.0);
    EXPECT_DOUBLE_EQ(t.dim(1).latency, 700.0);
}

TEST(Notation, RejectsMalformedInput)
{
    EXPECT_THROW(parseTopology(""), FatalError);
    EXPECT_THROW(parseTopology("Ring"), FatalError);
    EXPECT_THROW(parseTopology("Ring(4"), FatalError);
    EXPECT_THROW(parseTopology("Torus(4)"), FatalError);
    EXPECT_THROW(parseTopology("R(0)"), FatalError);
    EXPECT_THROW(parseTopology("R(4,abc)"), FatalError);
    EXPECT_THROW(parseTopology("R(4,1,2,3)"), FatalError);
}

TEST(Notation, NumbersReadLikeJsonNumbers)
{
    // A size is an integer in [1, INT_MAX]: no fraction, exponent,
    // sign, hex or overflow.
    for (const char *bad :
         {"R(4.7,100)_SW(2,25)", "R(1e10,100)", "R(4e0)", "R(0x10,100)",
          "R(+4,100)", "R(-4)", "R(2147483648)", "R( )", "R(,100)"})
        EXPECT_THROW(parseTopology(bad), FatalError) << bad;
    EXPECT_EQ(parseTopology("R(2147483647)").npus(), 2147483647);
    // Bandwidth and latency are finite decimals.
    for (const char *bad :
         {"R(4,inf)", "R(4,nan)", "R(4,100,inf)", "R(4,100,-inf)",
          "R(4,1e999)", "R(4,0x10)", "R(4,+100)", "R(4,100x)", "R(4,)"})
        EXPECT_THROW(parseTopology(bad), FatalError) << bad;
    Topology t = parseTopology("R(4, 12.5e1, 1E3)_SW(2,.5)");
    EXPECT_EQ(t.dim(0).bandwidth, 125.0);
    EXPECT_EQ(t.dim(0).latency, 1000.0);
    EXPECT_EQ(t.dim(1).bandwidth, 0.5);
    // Nothing may follow a dimension's closing parenthesis, and the
    // NPU count must fit an int.
    EXPECT_THROW(parseTopology("R(4)x_SW(2)"), FatalError);
    EXPECT_THROW(parseTopology("R(65536)_R(65536)"), FatalError);
}

TEST(Notation, DefaultsAndPresetNames)
{
    Topology t = parseTopology("FC(8)");
    EXPECT_EQ(t.dim(0).bandwidth, 100.0);
    EXPECT_EQ(t.dim(0).latency, 500.0);
    EXPECT_EQ(parseTopology("Conv4D").notation(),
              "Ring(2)_FullyConnected(8)_Ring(8)_Switch(4)");
    EXPECT_THROW(parseTopology("not-a-system"), FatalError);
}

TEST(Notation, BlockTypeNames)
{
    EXPECT_EQ(parseBlockType("ring"), BlockType::Ring);
    EXPECT_EQ(parseBlockType("FULLYCONNECTED"),
              BlockType::FullyConnected);
    EXPECT_EQ(parseBlockType("Sw"), BlockType::Switch);
    EXPECT_THROW(parseBlockType("mesh"), FatalError);
}

} // namespace
} // namespace astra
