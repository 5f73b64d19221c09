/** @file Tests for the sweep result store (tables + queries). */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/logging.h"
#include "common/output_file.h"
#include "sweep/result_store.h"

namespace astra {
namespace sweep {
namespace {

SweepResult
makeRow(size_t index, const std::string &axis_value, double total,
        double comm, uint64_t events)
{
    SweepResult r;
    r.config.index = index;
    r.config.label = "x=" + axis_value;
    r.config.hash = 0x1000 + index;
    r.config.axisValues = {axis_value};
    r.report.workload = "w";
    r.report.totalTime = total;
    r.report.average.compute = total - comm;
    r.report.average.exposedComm = comm;
    r.report.events = events;
    r.report.messages = events / 2;
    r.report.maxLinkBusyNs = total / 2.0; // 50% hot-link utilization.
    return r;
}

ResultStore
makeStore()
{
    ResultStore store("unit", {"x"});
    store.add(makeRow(0, "a", 300.0, 100.0, 30));
    store.add(makeRow(1, "b", 100.0, 80.0, 10));
    store.add(makeRow(2, "c", 200.0, 10.0, 20));
    return store;
}

TEST(ResultStore, QueriesSelectExtremes)
{
    ResultStore store = makeStore();
    EXPECT_EQ(store.rows(), 3u);
    EXPECT_EQ(store.argmin(Metric::TotalTime), 1u);
    EXPECT_EQ(store.argmax(Metric::TotalTime), 0u);
    EXPECT_DOUBLE_EQ(store.min(Metric::TotalTime), 100.0);
    EXPECT_DOUBLE_EQ(store.max(Metric::TotalTime), 300.0);
    EXPECT_EQ(store.argmin(Metric::ExposedComm), 2u);
    EXPECT_EQ(store.argmax(Metric::Events), 0u);
    EXPECT_DOUBLE_EQ(store.value(1, Metric::Compute), 20.0);
    EXPECT_DOUBLE_EQ(store.value(2, Metric::Messages), 10.0);
    EXPECT_DOUBLE_EQ(store.value(0, Metric::MaxLinkUtil), 0.5);
}

TEST(ResultStore, MeanAndPercentileOverSuccessfulRows)
{
    ResultStore store = makeStore(); // totals 300, 100, 200.
    EXPECT_DOUBLE_EQ(store.mean(Metric::TotalTime), 200.0);
    // Nearest-rank over {100, 200, 300}.
    EXPECT_DOUBLE_EQ(store.percentile(Metric::TotalTime, 0.0), 100.0);
    EXPECT_DOUBLE_EQ(store.percentile(Metric::TotalTime, 0.5), 200.0);
    EXPECT_DOUBLE_EQ(store.percentile(Metric::TotalTime, 0.95), 300.0);
    EXPECT_DOUBLE_EQ(store.percentile(Metric::TotalTime, 1.0), 300.0);
    EXPECT_THROW(store.percentile(Metric::TotalTime, 1.5), FatalError);

    // Failed rows are excluded from both aggregates.
    SweepResult bad = makeRow(3, "boom", 9999.0, 0.0, 1);
    bad.failed = true;
    store.add(bad);
    EXPECT_DOUBLE_EQ(store.mean(Metric::TotalTime), 200.0);
    EXPECT_DOUBLE_EQ(store.percentile(Metric::TotalTime, 1.0), 300.0);

    ResultStore empty("unit", {"x"});
    EXPECT_THROW(empty.mean(Metric::TotalTime), FatalError);
    EXPECT_THROW(empty.percentile(Metric::TotalTime, 0.5), FatalError);
}

TEST(ResultStore, FailedRowsKeptButSkippedByQueries)
{
    ResultStore store("unit", {"x"});
    SweepResult bad = makeRow(0, "boom", 1.0, 0.0, 1);
    bad.failed = true;
    bad.error = "mp does not divide";
    store.add(bad);
    store.add(makeRow(1, "ok", 50.0, 5.0, 5));

    EXPECT_EQ(store.rows(), 2u);
    EXPECT_EQ(store.argmin(Metric::TotalTime), 1u);
    EXPECT_THROW(store.value(0, Metric::TotalTime), FatalError);

    std::string csv = store.toCsv();
    EXPECT_NE(csv.find("failed: mp does not divide"),
              std::string::npos);
    // Failed rows carry the same field count as ok rows, so
    // header-keyed CSV parsers put the message in the status column.
    {
        std::istringstream lines(csv);
        std::string line;
        std::getline(lines, line); // header
        size_t header_fields = std::count(line.begin(), line.end(), ',');
        std::getline(lines, line); // failed row (no quoted commas)
        EXPECT_EQ(size_t(std::count(line.begin(), line.end(), ',')),
                  header_fields);
    }
    json::Value doc = store.toJson();
    EXPECT_EQ(doc.at("rows").asArray()[0].at("status").asString(),
              "failed");
    EXPECT_EQ(doc.at("rows").asArray()[1].at("status").asString(),
              "ok");

    // All rows failed -> queries are a user error.
    ResultStore all_failed("unit", {"x"});
    all_failed.add(bad);
    EXPECT_THROW(all_failed.argmin(Metric::TotalTime), FatalError);
}

TEST(ResultStore, CsvShapeAndQuoting)
{
    ResultStore store("unit", {"x"});
    store.add(makeRow(0, "has,comma \"quoted\"", 10.0, 1.0, 2));
    std::string csv = store.toCsv();

    // Header + one row.
    std::istringstream lines(csv);
    std::string header, row, extra;
    ASSERT_TRUE(std::getline(lines, header));
    ASSERT_TRUE(std::getline(lines, row));
    EXPECT_FALSE(std::getline(lines, extra));
    EXPECT_EQ(header,
              "index,label,config,x,total_ns,compute_ns,"
              "exposed_comm_ns,exposed_local_mem_ns,"
              "exposed_remote_mem_ns,idle_ns,events,messages,"
              "max_link_util,queueing_delay_ns,"
              "interference_slowdown,lost_work_ns,recovery_time_ns,"
              "num_faults,goodput,critical_path_ns,availability,"
              "blast_radius,spare_utilization,peak_footprint_bytes,"
              "bytes_per_flow,manifest,status");
    // RFC-4180: embedded quotes doubled, field quoted.
    EXPECT_NE(row.find("\"has,comma \"\"quoted\"\"\""),
              std::string::npos);
    EXPECT_NE(row.find("10.000"), std::string::npos);
    EXPECT_NE(row.find(",ok"), std::string::npos);
}

TEST(ResultStore, JsonShape)
{
    json::Value doc = makeStore().toJson();
    EXPECT_EQ(doc.at("sweep").asString(), "unit");
    EXPECT_EQ(doc.at("axes").asArray().size(), 1u);
    const json::Array &rows = doc.at("rows").asArray();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[1].at("axis_values").at("x").asString(), "b");
    EXPECT_DOUBLE_EQ(
        rows[1].at("report").at("total_time_ns").asNumber(), 100.0);
    // Host wall-clock must not be serialized (determinism contract).
    EXPECT_FALSE(rows[1].at("report").has("wall_seconds"));
}

TEST(ResultStore, FileOutput)
{
    ResultStore store = makeStore();
    std::string csv_path = "result_store_test.csv";
    std::string json_path = "result_store_test.json";
    OutputFile::write(csv_path, "CSV file", store.toCsv());
    OutputFile::write(json_path, "JSON file", store.toJson().dump(2) + "\n");

    std::ifstream csv(csv_path);
    std::stringstream csv_text;
    csv_text << csv.rdbuf();
    EXPECT_EQ(csv_text.str(), store.toCsv());

    json::Value doc = json::parseFile(json_path);
    EXPECT_EQ(doc.at("rows").asArray().size(), 3u);
    std::remove(csv_path.c_str());
    std::remove(json_path.c_str());
}

// Byte-exact pin of every scalar report metric through report JSON,
// the CSV ok row, the failed row's arity and a JSON round trip.
// Report A has every scalar nonzero; report B exercises the
// conditional keys (recovery percentiles with p50 == 0, the
// critical-path group with a zero bottleneck share).
TEST(ResultStore, ScalarMetricGolden)
{
    Report a;
    a.workload = "golden";
    a.totalTime = 987654.321;
    a.average = {500000.125, 200000.25, 100000.375, 50000.5, 137653.0625};
    a.events = 123457;
    a.messages = 4567;
    a.maxLinkBusyNs = 456789.5;
    a.queueingDelayNs = 1234.5;
    a.interferenceSlowdown = 1.375;
    a.lostWorkNs = 2345.75;
    a.recoveryTimeNs = 3456.25;
    a.numFaults = 3;
    a.goodput = 0.8125;
    a.availability = 0.96875;
    a.blastRadius = 1.5;
    a.recoveryP50Ns = 1111.5;
    a.recoveryP95Ns = 2222.25;
    a.spareUtilization = 0.4375;
    a.wallSeconds = 1.25;
    a.peakFootprintBytes = 1048583;
    a.bytesPerFlow = 312.625;
    a.bytesPerNpu = 4096.5;
    a.telemetryHeartbeats = 7;
    a.peakRssBytes = 99999;
    a.criticalPathNs = 876543.125;
    a.bottleneckLink = "d0:3->4";
    a.bottleneckLinkShare = 0.6875;

    Report b;
    b.workload = "gated";
    b.totalTime = 5000.5;
    b.events = 11;
    b.messages = 3;
    b.recoveryP95Ns = 777.75;
    b.criticalPathNs = 4000.25;
    b.traceExposedCommPerDim = {12.5, 0.0};
    b.bottleneckLink = "d1:0->1";

    struct Case
    {
        const Report *report;
        const char *json;
        const char *csvRow;
    };
    const Case cases[] = {
        {&a,
         "{\"availability\":0.96875,\"average\":{\"compute_ns\":"
         "500000.125,\"exposed_comm_ns\":200000.25,"
         "\"exposed_local_mem_ns\":100000.375,\"exposed_remote_mem_ns\":"
         "50000.5,\"idle_ns\":137653.0625},\"blast_radius\":1.5,"
         "\"bottleneck_link\":\"d0:3->4\",\"bottleneck_link_share\":"
         "0.6875,\"busy_time_per_dim_ns\":[],\"bytes_per_dim\":[],"
         "\"bytes_per_flow\":312.625,\"bytes_per_npu\":4096.5,"
         "\"critical_path_ns\":876543.125,\"events\":123457,"
         "\"footprint\":{},\"goodput\":0.8125,\"interference_slowdown\":"
         "1.375,\"links_per_dim\":[],\"lost_work_ns\":2345.75,"
         "\"max_link_busy_ns\":456789.5,\"messages\":4567,\"num_faults\":"
         "3,\"peak_footprint_bytes\":1048583,\"per_npu\":[],"
         "\"queueing_delay_ns\":1234.5,\"recovery_p50_ns\":1111.5,"
         "\"recovery_p95_ns\":2222.25,\"recovery_time_ns\":3456.25,"
         "\"spare_utilization\":0.4375,\"telemetry_heartbeats\":7,"
         "\"total_time_ns\":987654.321,"
         "\"trace_exposed_comm_per_dim_ns\":[],\"workload\":\"golden\"}",
         "0,x=v,0000000000000abc,v,987654.321,500000.125,200000.250,"
         "100000.375,50000.500,137653.062,123457,4567,0.462499,1234.500,"
         "1.375000,2345.750,3456.250,3,0.812500,876543.125,0.968750,"
         "1.500000,0.437500,1048583,312.625,m.json,ok"},
        {&b,
         "{\"average\":{\"compute_ns\":0,\"exposed_comm_ns\":0,"
         "\"exposed_local_mem_ns\":0,\"exposed_remote_mem_ns\":0,"
         "\"idle_ns\":0},\"bottleneck_link\":\"d1:0->1\","
         "\"bottleneck_link_share\":0,\"busy_time_per_dim_ns\":[],"
         "\"bytes_per_dim\":[],\"bytes_per_flow\":0,\"bytes_per_npu\":0,"
         "\"critical_path_ns\":4000.25,\"events\":11,\"footprint\":{},"
         "\"goodput\":0,\"interference_slowdown\":0,\"links_per_dim\":[],"
         "\"lost_work_ns\":0,\"max_link_busy_ns\":0,\"messages\":3,"
         "\"num_faults\":0,\"peak_footprint_bytes\":0,\"per_npu\":[],"
         "\"queueing_delay_ns\":0,\"recovery_p50_ns\":0,"
         "\"recovery_p95_ns\":777.75,\"recovery_time_ns\":0,"
         "\"total_time_ns\":5000.5,"
         "\"trace_exposed_comm_per_dim_ns\":[12.5,0],"
         "\"workload\":\"gated\"}",
         "0,x=v,0000000000000abc,v,5000.500,0.000,0.000,0.000,0.000,"
         "0.000,11,3,0.000000,0.000,0.000000,0.000,0.000,0,0.000000,"
         "4000.250,0.000000,0.000000,0.000000,0,0.000,m.json,ok"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.report->workload);
        const std::string json = reportToJson(*c.report).dump();
        EXPECT_EQ(json, c.json);
        EXPECT_EQ(reportToJson(reportFromJson(reportToJson(*c.report)))
                      .dump(),
                  json);

        SweepResult ok;
        ok.config.index = 0;
        ok.config.label = "x=v";
        ok.config.hash = 0xabc;
        ok.config.axisValues = {"v"};
        ok.report = *c.report;
        ok.manifest = "m.json";
        SweepResult bad = ok;
        bad.config.index = 1;
        bad.failed = true;
        bad.error = "boom";
        ResultStore store("golden", {"x"});
        store.add(ok);
        store.add(bad);
        std::istringstream lines(store.toCsv());
        std::string header, ok_row, bad_row;
        ASSERT_TRUE(std::getline(lines, header));
        ASSERT_TRUE(std::getline(lines, ok_row));
        ASSERT_TRUE(std::getline(lines, bad_row));
        EXPECT_EQ(ok_row, c.csvRow);
        EXPECT_EQ(std::count(bad_row.begin(), bad_row.end(), ','),
                  std::count(header.begin(), header.end(), ','));
    }
}

TEST(ResultStore, MetricNamesRoundTripThroughLookup)
{
    for (size_t i = 0; i < reportMetrics().size(); ++i) {
        Metric m = static_cast<Metric>(i);
        EXPECT_EQ(metricByName(metricName(m)), m) << metricName(m);
        EXPECT_EQ(metricByName(reportMetric(m).name), m);
    }
    // Every metric column the CSV prints is a valid lookup name.
    std::istringstream header(ResultStore("unit", {}).toCsv());
    std::string column;
    for (int skip = 0; skip < 3; ++skip) // index, label, config
        std::getline(header, column, ',');
    size_t columns = 0;
    while (std::getline(header, column, ',') && column != "manifest") {
        EXPECT_NO_THROW(metricByName(column)) << column;
        ++columns;
    }
    EXPECT_EQ(columns, size_t(std::count_if(
                           reportMetrics().begin(), reportMetrics().end(),
                           [](const ReportMetricInfo &m) { return m.csv; })));

    try {
        metricByName("no_such_metric");
        ADD_FAILURE() << "unknown metric accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("peak_footprint_bytes"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ResultStore, AxisArityValidated)
{
    ResultStore store("unit", {"x", "y"});
    EXPECT_THROW(store.add(makeRow(0, "only-x", 1.0, 0.0, 1)),
                 FatalError);
}

} // namespace
} // namespace sweep
} // namespace astra
