/** @file Unit tests for the declarative sweep specification. */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/logging.h"
#include "sweep/spec.h"

namespace astra {
namespace sweep {
namespace {

json::Value
minimalSpec()
{
    return json::parse(R"json({
      "name": "t",
      "base": {
        "topology": "Ring(4,100)",
        "backend": "analytical",
        "workload": {"kind": "collective", "collective": "all-reduce",
                     "bytes": 1048576}
      },
      "axes": [
        {"path": "workload.bytes",
         "values": [1048576, 2097152, 4194304]},
        {"path": "system.scheduling_policy",
         "values": ["baseline", "themis"]}
      ]
    })json");
}

TEST(SweepSpec, CartesianExpansion)
{
    SweepSpec spec = SweepSpec::fromJson(minimalSpec());
    EXPECT_EQ(spec.name(), "t");
    EXPECT_EQ(spec.mode(), GridMode::Cartesian);
    ASSERT_EQ(spec.configCount(), 6u);
    ASSERT_EQ(spec.axes().size(), 2u);
    EXPECT_EQ(spec.axisNames(),
              (std::vector<std::string>{"bytes", "scheduling_policy"}));

    // First axis varies slowest: index 0..5 maps to
    // (bytes[0], pol[0]), (bytes[0], pol[1]), (bytes[1], pol[0]), ...
    SweepConfig c0 = spec.config(0);
    SweepConfig c1 = spec.config(1);
    SweepConfig c2 = spec.config(2);
    EXPECT_EQ(c0.doc.at("workload").at("bytes").asInt(), 1048576);
    EXPECT_EQ(c0.doc.at("system").at("scheduling_policy").asString(),
              "baseline");
    EXPECT_EQ(c1.doc.at("workload").at("bytes").asInt(), 1048576);
    EXPECT_EQ(c1.doc.at("system").at("scheduling_policy").asString(),
              "themis");
    EXPECT_EQ(c2.doc.at("workload").at("bytes").asInt(), 2097152);
    EXPECT_EQ(c0.label, "bytes=1048576 scheduling_policy=baseline");
    EXPECT_EQ(c0.axisValues,
              (std::vector<std::string>{"1048576", "baseline"}));
}

TEST(SweepSpec, OverridesDoNotLeakAcrossConfigs)
{
    SweepSpec spec = SweepSpec::fromJson(minimalSpec());
    SweepConfig c5 = spec.config(5);
    SweepConfig c0 = spec.config(0);
    // Expanding config 5 first must not mutate the shared base.
    EXPECT_EQ(c0.doc.at("workload").at("bytes").asInt(), 1048576);
    EXPECT_EQ(c5.doc.at("workload").at("bytes").asInt(), 4194304);
}

TEST(SweepSpec, ZipExpansion)
{
    json::Value doc = minimalSpec();
    json::Object &obj = doc.mutableObject();
    obj["mode"] = json::Value("zip");
    obj["axes"] = json::parse(R"json([
      {"path": "workload.bytes", "values": [1, 2]},
      {"path": "system.scheduling_policy",
       "values": ["baseline", "themis"], "labels": ["b", "t"]}
    ])json");
    SweepSpec spec = SweepSpec::fromJson(doc);
    EXPECT_EQ(spec.mode(), GridMode::Zip);
    ASSERT_EQ(spec.configCount(), 2u);
    SweepConfig c1 = spec.config(1);
    EXPECT_EQ(c1.doc.at("workload").at("bytes").asInt(), 2);
    EXPECT_EQ(c1.doc.at("system").at("scheduling_policy").asString(),
              "themis");
    EXPECT_EQ(c1.axisValues[1], "t"); // label, not value.
}

TEST(SweepSpec, RangeAxis)
{
    json::Value doc = minimalSpec();
    doc.mutableObject()["axes"] = json::parse(R"json([
      {"path": "workload.bytes",
       "range": {"from": 100, "to": 500, "step": 100}}
    ])json");
    SweepSpec spec = SweepSpec::fromJson(doc);
    ASSERT_EQ(spec.configCount(), 5u);
    EXPECT_EQ(spec.config(4).doc.at("workload").at("bytes").asInt(),
              500);

    // A 'to' that falls between grid points must not round up to an
    // extra value beyond the declared bound.
    doc.mutableObject()["axes"] = json::parse(R"json([
      {"path": "workload.bytes",
       "range": {"from": 100, "to": 550, "step": 100}}
    ])json");
    EXPECT_EQ(SweepSpec::fromJson(doc).configCount(), 5u);

    // Fractional steps still reach an accumulated endpoint.
    doc.mutableObject()["axes"] = json::parse(R"json([
      {"path": "workload.bytes",
       "range": {"from": 0, "to": 0.3, "step": 0.1}}
    ])json");
    EXPECT_EQ(SweepSpec::fromJson(doc).configCount(), 4u);

    // A step below the ULP of 'from' must be a bounded user error,
    // not a hang (from + step == from in double precision).
    doc.mutableObject()["axes"] = json::parse(R"json([
      {"path": "workload.bytes",
       "range": {"from": 1e16, "to": 2e16, "step": 1}}
    ])json");
    EXPECT_THROW(SweepSpec::fromJson(doc), FatalError);
}

TEST(SweepSpec, ParseErrors)
{
    auto with = [](const char *mutation) {
        json::Value doc = minimalSpec();
        json::Value patch = json::parse(mutation);
        for (const auto &[key, v] : patch.asObject())
            doc.mutableObject()[key] = v.clone();
        return doc;
    };

    // Missing required keys.
    EXPECT_THROW(SweepSpec::fromJson(json::parse(R"({"axes": []})")),
                 FatalError);
    EXPECT_THROW(SweepSpec::fromJson(
                     json::parse(R"({"base": {}, "axes": []})")),
                 FatalError);
    // Unknown mode.
    EXPECT_THROW(SweepSpec::fromJson(with(R"({"mode": "diagonal"})")),
                 FatalError);
    // Axis without path / with empty values / with both values+range.
    EXPECT_THROW(SweepSpec::fromJson(
                     with(R"({"axes": [{"values": [1]}]})")),
                 FatalError);
    EXPECT_THROW(SweepSpec::fromJson(
                     with(R"({"axes": [{"path": "a", "values": []}]})")),
                 FatalError);
    EXPECT_THROW(
        SweepSpec::fromJson(with(
            R"({"axes": [{"path": "a", "values": [1],
                          "range": {"from": 1, "to": 2, "step": 1}}]})")),
        FatalError);
    // Bad range.
    EXPECT_THROW(
        SweepSpec::fromJson(with(
            R"({"axes": [{"path": "a",
                          "range": {"from": 1, "to": 2, "step": 0}}]})")),
        FatalError);
    EXPECT_THROW(
        SweepSpec::fromJson(with(
            R"({"axes": [{"path": "a",
                          "range": {"from": 3, "to": 2, "step": 1}}]})")),
        FatalError);
    // Mismatched label count.
    EXPECT_THROW(
        SweepSpec::fromJson(with(
            R"({"axes": [{"path": "a", "values": [1, 2],
                          "labels": ["only-one"]}]})")),
        FatalError);
    // Zip with unequal axis lengths.
    EXPECT_THROW(
        SweepSpec::fromJson(with(
            R"({"mode": "zip",
                "axes": [{"path": "a", "values": [1, 2]},
                         {"path": "b", "values": [1]}]})")),
        FatalError);
}

TEST(SweepSpec, ApplyOverride)
{
    json::Value doc = json::parse(R"({"a": {"b": 1}})");
    applyOverride(doc, "a.b", json::Value(2));
    EXPECT_EQ(doc.at("a").at("b").asInt(), 2);
    // Creates intermediate objects.
    applyOverride(doc, "x.y.z", json::Value("deep"));
    EXPECT_EQ(doc.at("x").at("y").at("z").asString(), "deep");
    // Traversing through a scalar is a user error.
    EXPECT_THROW(applyOverride(doc, "a.b.c", json::Value(1)),
                 FatalError);
}

TEST(SweepSpec, ApplyOverrideArrayIndices)
{
    json::Value doc = json::parse(
        R"({"jobs": [{"size": 4}, {"size": 8}]})");
    applyOverride(doc, "jobs.1.size", json::Value(16));
    EXPECT_EQ(doc.at("jobs").asArray()[1].at("size").asInt(), 16);
    EXPECT_EQ(doc.at("jobs").asArray()[0].at("size").asInt(), 4);
    // New keys inside an indexed element still work.
    applyOverride(doc, "jobs.0.placement", json::Value("spread"));
    EXPECT_EQ(doc.at("jobs").asArray()[0].at("placement").asString(),
              "spread");
    // Arrays are never grown implicitly.
    EXPECT_THROW(applyOverride(doc, "jobs.2.size", json::Value(1)),
                 FatalError);
    // A numeric key against an object is a plain object key.
    json::Value obj = json::parse(R"({"m": {}})");
    applyOverride(obj, "m.0", json::Value("zero"));
    EXPECT_EQ(obj.at("m").at("0").asString(), "zero");
}

TEST(SweepSpec, MultiPathAxisPatchesEveryPath)
{
    json::Value doc = json::parse(R"json({
      "base": {"topology": "Ring(4,100)",
               "system": {"a": 1, "b": 1},
               "workload": {"kind": "collective", "bytes": 1024}},
      "axes": [{"paths": ["system.a", "system.b"],
                "name": "knob", "values": [10, 20]}]
    })json");
    SweepSpec spec = SweepSpec::fromJson(doc);
    ASSERT_EQ(spec.configCount(), 2u);
    EXPECT_EQ(spec.axisNames(), std::vector<std::string>{"knob"});

    SweepConfig cfg = spec.config(1);
    EXPECT_EQ(cfg.doc.at("system").at("a").asInt(), 20);
    EXPECT_EQ(cfg.doc.at("system").at("b").asInt(), 20);
    EXPECT_EQ(cfg.label, "knob=20");
    // Both paths reach the hash.
    EXPECT_NE(spec.config(0).hash, spec.config(1).hash);

    // 'path' and 'paths' together (or neither) is a user error.
    EXPECT_THROW(SweepSpec::fromJson(json::parse(R"json({
        "base": {},
        "axes": [{"path": "a", "paths": ["b"], "values": [1]}]
      })json")),
                 FatalError);
    EXPECT_THROW(SweepSpec::fromJson(json::parse(R"json({
        "base": {},
        "axes": [{"paths": [], "values": [1]}]
      })json")),
                 FatalError);
}

TEST(SweepSpec, ConfigHashIdentityAndSensitivity)
{
    SweepSpec spec = SweepSpec::fromJson(minimalSpec());
    EXPECT_EQ(spec.config(0).hash, spec.config(0).hash);
    EXPECT_NE(spec.config(0).hash, spec.config(1).hash);

    // Any base change reaches every config hash.
    json::Value doc = minimalSpec();
    applyOverride(doc, "base.system.collective_chunks", json::Value(4));
    SweepSpec changed = SweepSpec::fromJson(doc);
    EXPECT_NE(spec.config(0).hash, changed.config(0).hash);
}

TEST(SweepSpec, MaterializeTopologyForms)
{
    // Notation string.
    MaterializedConfig notation = materializeConfig(json::parse(R"json({
      "topology": "Ring(4,100)_Switch(2,50)",
      "workload": {"kind": "collective", "bytes": 1024}
    })json"));
    EXPECT_EQ(notation.topo.npus(), 8);

    // Preset name (case-insensitive, no parentheses).
    MaterializedConfig preset = materializeConfig(json::parse(R"json({
      "topology": "conv3d",
      "workload": {"kind": "collective", "bytes": 1024}
    })json"));
    EXPECT_EQ(preset.topo.npus(), 512);

    // A dims object is not a topology.
    EXPECT_THROW(materializeConfig(json::parse(R"json({
      "topology": {"dims": [{"type": "Ring", "size": 4,
                             "bandwidth_gbps": 100}]},
      "workload": {"kind": "collective", "bytes": 1024}
    })json")),
                 FatalError);
}

TEST(SweepSpec, MaterializeWorkloadsAndErrors)
{
    // Hybrid transformer with explicit parallelism degrees.
    MaterializedConfig hybrid = materializeConfig(json::parse(R"json({
      "topology": "Ring(4,100)_Switch(4,50)",
      "system": {"collective_chunks": 2},
      "workload": {"kind": "hybrid", "model": "gpt3", "mp": 4,
                   "sim_layers": 2}
    })json"));
    EXPECT_EQ(hybrid.cfg.sys.collectiveChunks, 2);
    EXPECT_FALSE(hybrid.workload.name.empty());

    // MoE with the fused parameter path and a pooled tier.
    MaterializedConfig moe = materializeConfig(json::parse(R"json({
      "topology": "Switch(16,300)_Switch(16,25)",
      "system": {"remote_memory": {"kind": "pooled"}},
      "workload": {"kind": "moe", "param_path": "fused",
                   "sim_layers": 2}
    })json"));
    EXPECT_TRUE(moe.cfg.pooledMem.has_value());

    // Missing sections and unknown enumerations are user errors.
    EXPECT_THROW(materializeConfig(json::parse(
                     R"json({"workload": {"kind": "collective"}})json")),
                 FatalError);
    EXPECT_THROW(materializeConfig(json::parse(
                     R"json({"topology": "Ring(4,100)"})json")),
                 FatalError);
    EXPECT_THROW(
        materializeConfig(json::parse(
            R"json({"topology": "Ring(4,100)",
                    "workload": {"kind": "quantum"}})json")),
        FatalError);
    EXPECT_THROW(
        materializeConfig(json::parse(
            R"json({"topology": "Ring(4,100)",
                    "workload": {"kind": "hybrid",
                                 "model": "gpt5"}})json")),
        FatalError);
    EXPECT_THROW(
        materializeConfig(json::parse(
            R"json({"topology": "Ring(4,100)",
                    "workload": {"kind": "moe",
                                 "param_path": "psychic"}})json")),
        FatalError);
}

TEST(SweepSpec, SampleSpecRoundTrips)
{
    std::string path = "sweep_sample_spec_test.json";
    writeSampleSpec(path);
    SweepSpec spec = SweepSpec::fromFile(path);
    EXPECT_GT(spec.configCount(), 0u);
    // Every sample config materializes.
    MaterializedConfig mat = materializeConfig(spec.config(0).doc);
    EXPECT_EQ(mat.topo.npus(), 256);
    std::remove(path.c_str());
}

} // namespace
} // namespace sweep
} // namespace astra
