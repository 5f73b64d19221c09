/**
 * @file
 * Byte-level pins of the cluster report (docs/cluster.md): for two
 * committed scenarios, ClusterReport::toJson().dump(2), jobsCsv() and
 * summary() must match the committed expected files exactly.
 *
 *  - `sample`: the `cluster_runner --sample` scenario (two tenants on a
 *    flow Ring(16), one contiguous, one spread).
 *  - `fault`: the cluster `config` of `resilience_study --sample`
 *    (rack failure domains, "auto" checkpoint interval, migrate
 *    restarts, backfill admission).
 *
 * The expected files live in tests/cluster/golden/, next to the
 * inputs; `<name>.report.json` is what `cluster_runner <name>.json
 * --json` writes.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "cluster/config.h"

namespace astra {
namespace cluster {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
expectGolden(const std::string &name)
{
    const std::string dir = std::string(ASTRA_TEST_DIR) + "/cluster/golden/";
    ClusterReport report =
        runClusterScenario(json::parseFile(dir + name + ".json"));
    EXPECT_EQ(report.toJson().dump(2) + "\n",
              slurp(dir + name + ".report.json"));
    EXPECT_EQ(report.jobsCsv(), slurp(dir + name + ".jobs.csv"));
    EXPECT_EQ(report.summary(), slurp(dir + name + ".summary.txt"));
}

TEST(ClusterGolden, SampleScenarioOutputsAreByteIdentical)
{
    expectGolden("sample");
}

TEST(ClusterGolden, FaultedScenarioOutputsAreByteIdentical)
{
    expectGolden("fault");
}

} // namespace
} // namespace cluster
} // namespace astra
