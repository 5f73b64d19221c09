/** @file Tests for the parallel batch runner and the result cache. */
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/logging.h"
#include "sweep/result_store.h"
#include "sweep/runner.h"

namespace astra {
namespace sweep {
namespace {

/** Eight quick single-collective configurations over two topologies —
 *  heavy enough to exercise real simulations, light enough for CI. */
json::Value
smallSpec()
{
    return json::parse(R"json({
      "name": "runner-test",
      "base": {
        "topology": "Ring(4,100)_Switch(2,50)",
        "backend": "analytical",
        "workload": {"kind": "collective", "collective": "all-reduce",
                     "bytes": 1048576}
      },
      "axes": [
        {"path": "topology",
         "values": ["Ring(4,100)_Switch(2,50)", "FC(8,200)"]},
        {"path": "workload.bytes",
         "values": [262144, 1048576, 4194304, 16777216]}
      ]
    })json");
}

std::string
storeBytes(const SweepSpec &spec, const BatchOutcome &outcome)
{
    ResultStore store = ResultStore::fromBatch(spec, outcome);
    return store.toCsv() + store.toJson().dump(2);
}

/**
 * The body of an EXPECT_EXIT child: cap this process's file size at
 * `bytes` (with SIGXFSZ ignored, a write past it fails with EFBIG),
 * run `write`, and exit 3 after printing the FatalError it raised, or
 * 0 if it raised none. Both settings act on the child alone.
 */
template <typename F>
[[noreturn]] void
exitAfterCappedWrite(rlim_t bytes, F &&write)
{
    std::signal(SIGXFSZ, SIG_IGN);
    rlimit cap{bytes, bytes};
    setrlimit(RLIMIT_FSIZE, &cap);
    try {
        write();
    } catch (const FatalError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        std::_Exit(3);
    }
    std::_Exit(0);
}

TEST(BatchRunner, ResultsOrderedAndComplete)
{
    SweepSpec spec = SweepSpec::fromJson(smallSpec());
    BatchOutcome outcome = runBatch(spec);
    ASSERT_EQ(outcome.results.size(), 8u);
    EXPECT_EQ(outcome.threadsUsed, 1);
    EXPECT_EQ(outcome.failures, 0u);
    EXPECT_EQ(outcome.cacheHits, 0u);
    for (size_t i = 0; i < outcome.results.size(); ++i) {
        EXPECT_EQ(outcome.results[i].config.index, i);
        EXPECT_GT(outcome.results[i].report.totalTime, 0.0);
        EXPECT_FALSE(outcome.results[i].fromCache);
        // The expanded config document is released after the run
        // (regenerable via spec.config(i)); only identity remains.
        EXPECT_TRUE(outcome.results[i].config.doc.isNull());
        EXPECT_NE(outcome.results[i].config.hash, 0u);
    }
    // Larger collectives take longer on the same topology.
    EXPECT_LT(outcome.results[0].report.totalTime,
              outcome.results[3].report.totalTime);
}

TEST(BatchRunner, DeterministicAcrossThreadCounts)
{
    SweepSpec spec = SweepSpec::fromJson(smallSpec());

    BatchOptions one;
    one.threads = 1;
    std::string bytes1 = storeBytes(spec, runBatch(spec, one));

    BatchOptions two;
    two.threads = 2;
    BatchOutcome out2 = runBatch(spec, two);
    EXPECT_EQ(out2.threadsUsed, 2);
    std::string bytes2 = storeBytes(spec, out2);

    BatchOptions eight;
    eight.threads = 8;
    std::string bytes8 = storeBytes(spec, runBatch(spec, eight));

    // The determinism guarantee: byte-identical rendered stores for
    // any thread count.
    EXPECT_EQ(bytes1, bytes2);
    EXPECT_EQ(bytes1, bytes8);
}

TEST(BatchRunner, ThreadsClampedToConfigCount)
{
    SweepSpec spec = SweepSpec::fromJson(smallSpec());
    BatchOptions opts;
    opts.threads = 64;
    BatchOutcome outcome = runBatch(spec, opts);
    EXPECT_EQ(outcome.threadsUsed, 8);
    EXPECT_EQ(outcome.failures, 0u);
}

TEST(BatchRunner, FailedConfigDoesNotAbortBatch)
{
    json::Value doc = smallSpec();
    // Second topology value cannot host the hybrid mp=3 mapping;
    // switch the workload so one axis value is invalid.
    doc.mutableObject()["axes"] = json::parse(R"json([
      {"path": "workload.mp", "values": [1, 3, 2]}
    ])json");
    applyOverride(doc, "base.workload",
                  json::parse(R"json({"kind": "hybrid", "model": "gpt3",
                                      "mp": 1, "sim_layers": 1})json"));
    SweepSpec spec = SweepSpec::fromJson(doc);
    BatchOutcome outcome = runBatch(spec);
    ASSERT_EQ(outcome.results.size(), 3u);
    EXPECT_EQ(outcome.failures, 1u);
    EXPECT_FALSE(outcome.results[0].failed);
    EXPECT_TRUE(outcome.results[1].failed);   // mp=3 over 8 NPUs.
    EXPECT_FALSE(outcome.results[1].error.empty());
    EXPECT_FALSE(outcome.results[2].failed);
}

TEST(BatchRunner, ExpansionErrorIsolatedPerRow)
{
    // An axis path traversing a scalar fails in spec.config(), not in
    // the simulation — it must still land on its row, not terminate
    // the process (worker threads would otherwise std::terminate).
    json::Value doc = smallSpec();
    doc.mutableObject()["axes"] = json::parse(R"json([
      {"path": "topology.size", "values": [1, 2]}
    ])json");
    SweepSpec spec = SweepSpec::fromJson(doc);
    BatchOptions opts;
    opts.threads = 2;
    BatchOutcome outcome = runBatch(spec, opts);
    ASSERT_EQ(outcome.results.size(), 2u);
    EXPECT_EQ(outcome.failures, 2u);
    for (const SweepResult &r : outcome.results) {
        EXPECT_TRUE(r.failed);
        EXPECT_FALSE(r.error.empty());
        // Placeholder axis values keep the table rectangular.
        EXPECT_EQ(r.config.axisValues.size(), 1u);
    }
    // The store still renders (header-aligned failed rows).
    ResultStore store = ResultStore::fromBatch(spec, outcome);
    EXPECT_NE(store.toCsv().find("failed: "), std::string::npos);
}

TEST(BatchRunner, HeartbeatWriteFailureIsAUserError)
{
    // Beats every microsecond make the sampler thread hit the full
    // disk mid-batch; the failure surfaces from runBatch on this
    // thread instead of terminating the process.
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full is absent";
    SweepSpec spec = SweepSpec::fromJson(smallSpec());
    BatchOptions opts;
    opts.threads = 2;
    opts.telemetry.file = "/dev/full";
    opts.telemetry.intervalMs = 0.001;
    EXPECT_THROW(runBatch(spec, opts), FatalError);
}

TEST(BatchRunner, ManifestWriteFailureIsAUserError)
{
    // Row manifests are written on the worker threads. A failed write
    // there surfaces from runBatch as a FatalError instead of
    // terminating the process. The writes fail in a forked child that
    // caps its own file size.
    std::string dir = testing::TempDir() + "/astra_manifest_fail";
    std::filesystem::create_directories(dir);
    SweepSpec spec = SweepSpec::fromJson(smallSpec());
    BatchOptions opts;
    opts.threads = 2;
    opts.manifestDir = dir;
    // 200 bytes: room for the error message, not for a manifest.
    EXPECT_EXIT(exitAfterCappedWrite(200, [&] { runBatch(spec, opts); }),
                testing::ExitedWithCode(3),
                "cannot write run manifest .*: File too large");
    std::filesystem::remove_all(dir);
}

TEST(ResultCache, HitsSkipSimulationAndPreserveBytes)
{
    SweepSpec spec = SweepSpec::fromJson(smallSpec());
    ResultCache cache;
    BatchOptions opts;
    opts.cache = &cache;

    BatchOutcome cold = runBatch(spec, opts);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cache.size(), 8u);
    std::string cold_bytes = storeBytes(spec, cold);

    BatchOutcome warm = runBatch(spec, opts);
    EXPECT_EQ(warm.cacheHits, 8u);
    for (const SweepResult &r : warm.results)
        EXPECT_TRUE(r.fromCache);
    // Cached reports round-trip bit-exactly (%.17g doubles): rendered
    // stores stay byte-identical.
    EXPECT_EQ(storeBytes(spec, warm), cold_bytes);
}

TEST(ResultCache, InvalidationIsPerConfig)
{
    SweepSpec spec = SweepSpec::fromJson(smallSpec());
    ResultCache cache;
    BatchOptions opts;
    opts.cache = &cache;
    runBatch(spec, opts);

    // Change one axis value: only the four configs that contain it
    // re-simulate; the other four hit.
    json::Value doc = smallSpec();
    doc.mutableObject()["axes"] = json::parse(R"json([
      {"path": "topology",
       "values": ["Ring(4,100)_Switch(2,50)", "FC(4,200)"]},
      {"path": "workload.bytes",
       "values": [262144, 1048576, 4194304, 16777216]}
    ])json");
    SweepSpec changed = SweepSpec::fromJson(doc);
    BatchOutcome outcome = runBatch(changed, opts);
    EXPECT_EQ(outcome.cacheHits, 4u);
    EXPECT_EQ(cache.size(), 12u);
}

TEST(ResultCache, FileRoundTrip)
{
    SweepSpec spec = SweepSpec::fromJson(smallSpec());
    ResultCache cache;
    BatchOptions opts;
    opts.cache = &cache;
    BatchOutcome cold = runBatch(spec, opts);
    std::string path = "sweep_cache_test.json";
    cache.saveFile(path);

    ResultCache loaded;
    EXPECT_EQ(loaded.loadFile(path), 8u);
    BatchOptions warm_opts;
    warm_opts.cache = &loaded;
    BatchOutcome warm = runBatch(spec, warm_opts);
    EXPECT_EQ(warm.cacheHits, 8u);
    EXPECT_EQ(storeBytes(spec, warm), storeBytes(spec, cold));

    // Missing files load as empty, not as errors.
    ResultCache empty;
    EXPECT_EQ(empty.loadFile("does_not_exist_cache.json"), 0u);
    std::remove(path.c_str());
}

TEST(ResultCache, CorruptFileDegradesToCold)
{
    // A truncated/garbage cache file (killed run, disk hiccup) must
    // behave like a cold cache, not abort the sweep.
    std::string path = "sweep_cache_corrupt_test.json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"kind\": \"astra-sweep-result-cac", f);
    std::fclose(f);

    ResultCache cache;
    EXPECT_EQ(cache.loadFile(path), 0u);
    EXPECT_EQ(cache.size(), 0u);
    std::remove(path.c_str());
}

TEST(ResultCache, MalformedEntryIsAMissNotACrash)
{
    // A cached report whose body has the wrong shape (hand-edited
    // file) must count as a miss and re-simulate — in a worker thread
    // an escaping FatalError would std::terminate the process.
    SweepSpec spec = SweepSpec::fromJson(smallSpec());
    // insert() always writes valid shapes, so craft a cache file whose
    // entry for every config has per_npu as a number, not an array.
    std::string path = "sweep_cache_poison_test.json";
    {
        std::string text = "{\"kind\": \"astra-sweep-result-cache\", "
                           "\"version\": \"" +
                           sweep::cacheFingerprint() +
                           "\", \"entries\": {";
        for (size_t i = 0; i < spec.configCount(); ++i) {
            if (i > 0)
                text += ',';
            text += '"' + configHashString(spec.config(i).hash) +
                    "\": {\"per_npu\": 7}";
        }
        text += "}}";
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs(text.c_str(), f);
        std::fclose(f);
    }
    ResultCache poisoned;
    EXPECT_EQ(poisoned.loadFile(path), spec.configCount());

    BatchOptions opts;
    opts.threads = 2;
    opts.cache = &poisoned;
    BatchOutcome outcome = runBatch(spec, opts);
    EXPECT_EQ(outcome.cacheHits, 0u); // every entry malformed -> miss.
    EXPECT_EQ(outcome.failures, 0u);  // every config re-simulated.
    std::remove(path.c_str());
}

TEST(ResultCache, WrongShapeFileDegradesToCold)
{
    // Valid JSON with the wrong structure ('entries' as an array)
    // must also degrade to a cold cache, not escape as FatalError.
    std::string path = "sweep_cache_shape_test.json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::string text = "{\"kind\": \"astra-sweep-result-cache\", "
                       "\"version\": \"" +
                       cacheFingerprint() + "\", \"entries\": []}";
    std::fputs(text.c_str(), f);
    std::fclose(f);

    ResultCache cache;
    EXPECT_EQ(cache.loadFile(path), 0u);
    EXPECT_EQ(cache.size(), 0u);
    std::remove(path.c_str());
}

TEST(ResultCache, VersionMismatchRejected)
{
    // Entries written by a different build describe different
    // semantics; they must load as a cold cache. Both the legacy
    // integer version of pre-fingerprint builds and a wrong
    // fingerprint string are rejected.
    std::string path = "sweep_cache_version_test.json";
    for (const char *version : {"0", "2", "\"0123456789abcdef\""}) {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::string text = "{\"kind\": \"astra-sweep-result-cache\", "
                           "\"version\": " +
                           std::string(version) +
                           ", \"entries\": "
                           "{\"0000000000000001\": {\"workload\": "
                           "\"w\"}}}";
        std::fputs(text.c_str(), f);
        std::fclose(f);

        ResultCache cache;
        EXPECT_EQ(cache.loadFile(path), 0u) << version;
        EXPECT_EQ(cache.size(), 0u) << version;
    }
    std::remove(path.c_str());
}

TEST(ResultCache, SaveStampsTheBuildFingerprint)
{
    // The persisted version string is the automatic build fingerprint
    // (kSpecSchemaVersion + report field list), not the bare manual
    // constant — a report-schema change invalidates caches even if
    // the constant was not bumped.
    EXPECT_EQ(cacheFingerprint().size(), 16u); // 16-hex-digit hash.
    EXPECT_NE(cacheFingerprint(), std::to_string(kSpecSchemaVersion));

    std::string path = "sweep_cache_fingerprint_test.json";
    ResultCache cache;
    cache.insert(1, Report{});
    cache.saveFile(path);
    json::Value doc = json::parseFile(path);
    EXPECT_EQ(doc.getString("version", ""), cacheFingerprint());

    ResultCache reload;
    EXPECT_EQ(reload.loadFile(path), 1u);
    std::remove(path.c_str());
}

TEST(ResultCache, FailedSaveKeepsThePreviousCache)
{
    // A save whose writes fail is a user error, and the cache file
    // saved before it stays byte-identical: the truncated .tmp is
    // never renamed over it. The writes fail in a forked child that
    // caps its own file size below the second document.
    std::string path = "sweep_cache_failed_save_test.json";
    ResultCache cache;
    cache.insert(1, Report{});
    cache.saveFile(path);
    auto slurp = [&] {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    const std::string before = slurp();
    for (uint64_t h = 2; h < 40; ++h)
        cache.insert(h, Report{});

    EXPECT_EXIT(exitAfterCappedWrite(before.size(),
                                     [&] { cache.saveFile(path); }),
                testing::ExitedWithCode(3),
                "cannot write result cache "
                "sweep_cache_failed_save_test\\.json\\.tmp: File too large");
    EXPECT_EQ(slurp(), before);
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

} // namespace
} // namespace sweep
} // namespace astra
