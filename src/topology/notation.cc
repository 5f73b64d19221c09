#include "topology/notation.h"

#include <cctype>
#include <charconv>
#include <climits>
#include <cmath>
#include <vector>

#include "common/logging.h"

namespace astra {

namespace {

/**
 * The named systems: the Table II evaluation systems (bandwidths are
 * the paper's per-NPU per-dimension figures) and the Fig. 3(c)
 * platforms (representative public numbers). Every link keeps the
 * notation's default 500 ns latency.
 */
struct Preset
{
    const char *name;
    const char *notation;
};

constexpr Preset kPresets[] = {
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
    // 448 Gb/s inter-core interconnect per dimension (§III-B).
    {"tpuv4", "Ring(4,56)_Ring(2,56)_Ring(2,56)"},
    {"dragonfly", "FC(4,100)_FC(2,50)_FC(2,25)"},
    {"habana", "FC(4,100)_Switch(2,25)"},
    {"zion", "Ring(4,100)_Switch(2,25)"},
};

std::string
lower(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

/** Split "a_b_c" at top level (underscores never appear inside parens). */
std::vector<std::string>
splitDims(const std::string &text)
{
    std::vector<std::string> parts;
    std::string cur;
    int depth = 0;
    for (char c : text) {
        if (c == '(')
            ++depth;
        else if (c == ')')
            --depth;
        if (c == '_' && depth == 0) {
            parts.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    parts.push_back(cur);
    return parts;
}

std::vector<std::string>
splitArgs(const std::string &inner)
{
    std::vector<std::string> args;
    std::string cur;
    for (char c : inner) {
        if (c == ',') {
            args.push_back(cur);
            cur.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            cur += c;
        }
    }
    args.push_back(cur);
    return args;
}

/** One std::from_chars call over the whole token, as json::Reader
 *  reads numbers: no sign, hex or trailing characters. */
template <typename T>
bool
readWhole(const std::string &tok, T &v)
{
    const char *end = tok.data() + tok.size();
    auto [stop, ec] = std::from_chars(tok.data(), end, v);
    return ec == std::errc() && stop == end;
}

double
parseFinite(const std::string &tok, const char *what,
            const std::string &part)
{
    double v = 0;
    ASTRA_USER_CHECK(readWhole(tok, v) && std::isfinite(v),
                     "topology notation: %s '%s' in '%s' must be a finite "
                     "number",
                     what, tok.c_str(), part.c_str());
    return v;
}

Topology
parseNotation(const std::string &text)
{
    std::vector<Dimension> dims;
    for (const std::string &part : splitDims(text)) {
        size_t open = part.find('(');
        size_t close = part.rfind(')');
        ASTRA_USER_CHECK(open != std::string::npos &&
                             close == part.size() - 1 && close > open,
                         "topology notation: malformed dimension '%s'",
                         part.c_str());
        Dimension dim;
        dim.type = parseBlockType(part.substr(0, open));
        std::vector<std::string> args =
            splitArgs(part.substr(open + 1, close - open - 1));
        ASTRA_USER_CHECK(args.size() <= 3,
                         "topology notation: dimension '%s' takes 1-3 "
                         "arguments (size[,bw_gbps[,latency_ns]])",
                         part.c_str());
        ASTRA_USER_CHECK(readWhole(args[0], dim.size) && dim.size >= 1,
                         "topology notation: size '%s' in '%s' must be an "
                         "integer in [1, %d]",
                         args[0].c_str(), part.c_str(), INT_MAX);
        if (args.size() >= 2)
            dim.bandwidth = parseFinite(args[1], "bandwidth", part);
        if (args.size() >= 3)
            dim.latency = parseFinite(args[2], "latency", part);
        dims.push_back(dim);
    }
    return Topology(std::move(dims));
}

} // namespace

BlockType
parseBlockType(const std::string &name)
{
    std::string n = lower(name);
    if (n == "r" || n == "ring")
        return BlockType::Ring;
    if (n == "fc" || n == "fullyconnected")
        return BlockType::FullyConnected;
    if (n == "sw" || n == "switch")
        return BlockType::Switch;
    fatal("unknown topology building block '%s' "
          "(expected Ring/R, FullyConnected/FC, Switch/SW)",
          name.c_str());
}

Topology
parseTopology(const std::string &text)
{
    ASTRA_USER_CHECK(!text.empty(), "empty topology notation");
    // Notation always carries parenthesized factors; anything else is
    // a preset name.
    if (text.find('(') != std::string::npos)
        return parseNotation(text);
    std::string name = lower(text);
    for (const Preset &p : kPresets)
        if (name == p.name)
            return parseNotation(p.notation);
    std::string known;
    for (const Preset &p : kPresets)
        known += (known.empty() ? "" : ", ") + std::string(p.name);
    fatal("unknown topology preset '%s' (presets: %s; or a notation such "
          "as Ring(4,100)_Switch(2,50))",
          text.c_str(), known.c_str());
}

Topology
topologyFromJson(const json::Value &v, const std::string &path)
{
    ASTRA_USER_CHECK(v.isString(),
                     "%s: must be a preset name or a notation string, "
                     "e.g. \"conv4d\" or \"Ring(4,100)_Switch(2,50)\"",
                     path.c_str());
    return parseTopology(v.asString());
}

} // namespace astra
