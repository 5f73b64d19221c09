/** @file Unit tests for the minimal JSON parser/writer. */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "common/output_file.h"

namespace astra {
namespace json {
namespace {

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parse("null").isNull());
    EXPECT_EQ(parse("true").asBool(), true);
    EXPECT_EQ(parse("false").asBool(), false);
    EXPECT_DOUBLE_EQ(parse("3.5").asNumber(), 3.5);
    EXPECT_DOUBLE_EQ(parse("-17").asNumber(), -17.0);
    EXPECT_DOUBLE_EQ(parse("1e9").asNumber(), 1e9);
    EXPECT_DOUBLE_EQ(parse("2.5E-3").asNumber(), 2.5e-3);
    EXPECT_EQ(parse("\"hello\"").asString(), "hello");
}

TEST(Json, ParsesContainers)
{
    Value v = parse(R"({"a": [1, 2, 3], "b": {"c": true}})");
    ASSERT_TRUE(v.isObject());
    const Array &arr = v.at("a").asArray();
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_DOUBLE_EQ(arr[1].asNumber(), 2.0);
    EXPECT_TRUE(v.at("b").at("c").asBool());
}

TEST(Json, ParsesNestedEmptyContainers)
{
    Value v = parse(R"({"a": [], "b": {}, "c": [[], [{}]]})");
    EXPECT_TRUE(v.at("a").asArray().empty());
    EXPECT_TRUE(v.at("b").asObject().empty());
    EXPECT_EQ(v.at("c").asArray().size(), 2u);
}

TEST(Json, ParsesStringEscapes)
{
    EXPECT_EQ(parse(R"("a\nb\tc")").asString(), "a\nb\tc");
    EXPECT_EQ(parse(R"("q\"q")").asString(), "q\"q");
    EXPECT_EQ(parse(R"("s\\t")").asString(), "s\\t");
    EXPECT_EQ(parse(R"("A")").asString(), "A");
    EXPECT_EQ(parse(R"("é")").asString(), "\xc3\xa9");
    EXPECT_EQ(parse(R"("\u20ac\u00e9\u0041")").asString(),
              "\xe2\x82\xac\xc3\xa9" "A");
}

TEST(Json, WhitespaceTolerant)
{
    Value v = parse("  {\n  \"x\"  :\t1 ,\r\n \"y\": [ 1 , 2 ] }  ");
    EXPECT_DOUBLE_EQ(v.at("x").asNumber(), 1.0);
    EXPECT_EQ(v.at("y").asArray().size(), 2u);
}

TEST(Json, RoundTripsThroughDump)
{
    const std::string doc =
        R"({"name":"astra","nodes":[{"id":1,"type":"compute"},)"
        R"({"id":2,"type":"comm"}],"ok":true,"scale":0.5})";
    Value v = parse(doc);
    Value again = parse(v.dump());
    EXPECT_EQ(v.dump(), again.dump());
    // Pretty output parses back to the same document too.
    EXPECT_EQ(parse(v.dump(2)).dump(), v.dump());
}

TEST(Json, IntegersSerializeWithoutDecimals)
{
    Value v(int64_t(42));
    EXPECT_EQ(v.dump(), "42");
    EXPECT_EQ(Value(-3).dump(), "-3");
}

TEST(Json, LookupHelpers)
{
    Value v = parse(R"({"bw": 100.5, "n": 4, "on": true, "s": "x"})");
    EXPECT_DOUBLE_EQ(v.getNumber("bw", 0.0), 100.5);
    EXPECT_EQ(v.getInt("n", 0), 4);
    EXPECT_TRUE(v.getBool("on", false));
    EXPECT_EQ(v.getString("s", ""), "x");
    EXPECT_DOUBLE_EQ(v.getNumber("missing", 7.0), 7.0);
    EXPECT_EQ(v.getInt("missing", -1), -1);
    EXPECT_FALSE(v.getBool("missing", false));
    EXPECT_EQ(v.getString("missing", "d"), "d");
}

TEST(Json, ErrorsAreUserFacing)
{
    EXPECT_THROW(parse("{"), FatalError);
    EXPECT_THROW(parse("[1,]"), FatalError);
    EXPECT_THROW(parse("{\"a\" 1}"), FatalError);
    EXPECT_THROW(parse("tru"), FatalError);
    EXPECT_THROW(parse("1 2"), FatalError);
    EXPECT_THROW(parse(""), FatalError);
    EXPECT_THROW(parse("\"unterminated"), FatalError);
    EXPECT_THROW(parse("{\"a\":1}x"), FatalError);
}

TEST(Json, KindMismatchIsFatal)
{
    Value v = parse("{\"a\": 1}");
    EXPECT_THROW(v.at("a").asString(), FatalError);
    EXPECT_THROW(v.at("missing"), FatalError);
    EXPECT_THROW(v.asArray(), FatalError);
}

TEST(Json, BuildsDocumentsProgrammatically)
{
    Value doc{Object{}};
    doc.mutableObject()["npus"] = Value(4);
    Array nodes;
    for (int i = 0; i < 3; ++i) {
        Object n;
        n["id"] = Value(i);
        nodes.push_back(Value(std::move(n)));
    }
    doc.mutableObject()["nodes"] = Value(std::move(nodes));
    Value parsed = parse(doc.dump());
    EXPECT_EQ(parsed.at("npus").asInt(), 4);
    EXPECT_EQ(parsed.at("nodes").asArray().size(), 3u);
}

TEST(Json, FileRoundTrip)
{
    std::string path = testing::TempDir() + "/astra_json_test.json";
    Value v = parse(R"({"hello": [1, 2, {"deep": "value"}]})");
    OutputFile::write(path, "JSON file", v.dump(2) + "\n");
    Value back = parseFile(path);
    EXPECT_EQ(back.dump(), v.dump());
    EXPECT_THROW(parseFile("/nonexistent/astra.json"), FatalError);
}

TEST(Json, NumbersMatchPrintf)
{
    // Integral values below 1e15 print as integers, everything else
    // as printf("%.17g"), byte for byte.
    std::vector<double> values = {0.0, -0.0, 1.0, -7.0, 0.1, 1e15,
                                  -1e15, 999999999999999.0, 1e300,
                                  1e-300, 4.9e-324, 2.5, 1.0 / 3.0,
                                  123456789.125, -0.001};
    std::mt19937_64 rng(5);
    std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
    for (int i = 0; i < 100000; ++i)
        values.push_back(mantissa(rng) * std::pow(10.0, i % 40 - 20));
    char ref[64];
    for (double v : values) {
        if (v == std::floor(v) && std::abs(v) < 1e15)
            std::snprintf(ref, sizeof(ref), "%lld", (long long)v);
        else
            std::snprintf(ref, sizeof(ref), "%.17g", v);
        ASSERT_EQ(Value(v).dump(), ref) << v;
    }
}

TEST(Json, DumpEscapesStrings)
{
    EXPECT_EQ(Value(std::string("a\"b\\c\nd\te\x01\x1f\xc3\xa9")).dump(),
              "\"a\\\"b\\\\c\\nd\\te\\u0001\\u001f\xc3\xa9\"");
    Value back = parse(Value(std::string("x\ry\bz\f")).dump());
    EXPECT_EQ(back.asString(), "x\ry\bz\f");
}

TEST(Json, NumberGrammar)
{
    for (const char *bad : {"1e999", "1e-320", "-", "+1", "1e"})
        EXPECT_THROW(parse(bad), FatalError) << bad;
    Value zero = parse("-0");
    EXPECT_EQ(zero.asNumber(), 0.0);
    EXPECT_TRUE(std::signbit(zero.asNumber()));
    EXPECT_EQ(parse("1.").asNumber(), 1.0);
    EXPECT_EQ(parse(".5").asNumber(), 0.5);
    EXPECT_EQ(parse("01").asNumber(), 1.0);
    EXPECT_EQ(parse("2.2250738585072014e-308").asNumber(),
              2.2250738585072014e-308);
}

/** `text` written to a file and parsed through the file reader. */
Value
parseViaFile(const std::string &text)
{
    std::string path = testing::TempDir() + "/astra_json_reader.json";
    OutputFile::write(path, "JSON file", text);
    return parseFile(path);
}

/** The message `fn` fails with ("" if it does not). */
template <typename Fn>
std::string
errorOf(Fn fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(JsonReader, TokensAcrossARefillParseAsFromText)
{
    // Slide the tokens over the end of the first buffer a byte at a
    // time, so each kind straddles a refill at every offset.
    const std::string tail = R"(["a\u00e9\"b\u20ac", -12345.678e-2, )"
                             R"(123456789012, true, false, null, {"k": []}])";
    for (size_t shift = 1; shift <= tail.size(); ++shift) {
        std::string text =
            std::string(Reader::kBufferBytes - shift, ' ') + tail;
        EXPECT_EQ(parseViaFile(text).dump(), parse(text).dump()) << shift;
    }
    std::string big = "{\"s\": \"" +
                      std::string(3 * Reader::kBufferBytes, 'x') +
                      "\", \"n\": [0";
    for (int i = 1; i < 40000; ++i)
        big += ", " + std::to_string(i * 0.25);
    big += "]}";
    EXPECT_EQ(parseViaFile(big).dump(), parse(big).dump());
}

TEST(JsonReader, ErrorsAfterARefillReportTheSamePosition)
{
    std::string lines;
    for (int i = 0; i < 30000; ++i)
        lines += "  1,\n";
    const std::string path = testing::TempDir() + "/astra_json_reader.json";
    for (const std::string &bad :
         {"[" + lines + "tru]", "[" + lines + " 1e]", "[" + lines,
          "[1]" + lines + "x",
          "[\n" + std::string(Reader::kBufferBytes + 99, ' ') + "x]"}) {
        std::string from_text = errorOf([&] { parse(bad); });
        ASSERT_NE(from_text.find("json parse error at line"),
                  std::string::npos);
        EXPECT_EQ(errorOf([&] { parseViaFile(bad); }),
                  path + ": " + from_text);
    }
}

TEST(JsonReader, NestingPastTheLimitIsASyntaxError)
{
    // Objects and arrays count alike: kMaxDepth levels parse, one more
    // fails with the position just past the bracket that went too
    // deep, and a million levels fail the same way instead of
    // overflowing the stack.
    std::string open, close;
    for (size_t d = 0; d < Reader::kMaxDepth; ++d) {
        open += d % 2 ? "[" : "{\"k\":";
        close.insert(0, d % 2 ? "]" : "}");
    }
    EXPECT_NO_THROW(parse(open + "1" + close));
    EXPECT_EQ(errorOf([&] { parse(open + "[1]" + close); }),
              "json parse error at line 1 col " +
                  std::to_string(open.size() + 2) +
                  ": nesting deeper than 1000 levels");
    // Empty containers open nothing to recurse into.
    EXPECT_NO_THROW(parse(open + "[]" + close));
    const std::string path = testing::TempDir() + "/astra_json_reader.json";
    EXPECT_EQ(errorOf([&] { parseViaFile(std::string(1000000, '[')); }),
              path + ": json parse error at line 1 col 1002: nesting "
                     "deeper than 1000 levels");
}

} // namespace
} // namespace json
} // namespace astra
