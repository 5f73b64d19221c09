/**
 * @file
 * Tidy tabulation of sweep results with strategy-search queries.
 *
 * A ResultStore holds one row per sweep configuration — axis values as
 * leading columns, the paper's five-way runtime breakdown (compute /
 * exposed comm / exposed local mem / exposed remote mem / idle) plus
 * totals as metric columns — and renders them as CSV or JSON for
 * downstream analysis. min/max/argmin/argmax over any metric answer
 * the design-space questions the paper's sweeps exist for ("which
 * bandwidth provision minimizes iteration time?").
 *
 * Determinism: serialization covers only simulated quantities (host
 * wall-clock and cache provenance are excluded), so the same spec
 * renders byte-identical tables regardless of thread count or cache
 * state. Failed configurations keep their row (status column) but are
 * skipped by the queries.
 */
#ifndef ASTRA_SWEEP_RESULT_STORE_H_
#define ASTRA_SWEEP_RESULT_STORE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "sweep/runner.h"

namespace astra {
namespace sweep {

/** Metric columns exposed to queries: the scalar report metrics
 *  (astra/report.h ASTRA_REPORT_METRICS). */
using Metric = ReportMetric;

/** Column name of a metric (the CSV header; the JSON key for metrics
 *  without a CSV column). */
const char *metricName(Metric m);

/** Metric named `name` (a metricName or JSON key); fatal() listing the
 *  valid names otherwise. */
Metric metricByName(const std::string &name);

/** See file comment. */
class ResultStore
{
  public:
    ResultStore(std::string sweep_name,
                std::vector<std::string> axis_names);

    /** Convenience: tabulate a whole batch outcome. */
    static ResultStore fromBatch(const SweepSpec &spec,
                                 const BatchOutcome &outcome);

    /** Move overload: steals the outcome's rows (config documents and
     *  per-NPU report arrays are heavy; callers done with the outcome
     *  should not pay for a deep copy of every row). */
    static ResultStore fromBatch(const SweepSpec &spec,
                                 BatchOutcome &&outcome);

    /** Append a result row (rows keep insertion order; fromBatch
     *  inserts in config-index order). Pass an rvalue to move. */
    void add(SweepResult result);

    size_t rows() const { return rows_.size(); }
    const SweepResult &row(size_t i) const;

    /** Metric value of row `i`; fatal() if the row failed. */
    double value(size_t i, Metric m) const;

    /** Row index minimizing / maximizing a metric (failed rows are
     *  skipped); fatal() if no row succeeded. */
    size_t argmin(Metric m) const;
    size_t argmax(Metric m) const;

    double min(Metric m) const { return value(argmin(m), m); }
    double max(Metric m) const { return value(argmax(m), m); }

    /** Mean of a metric over successful rows; fatal() if none
     *  succeeded. Resilience studies report mean goodput over the
     *  `fault.seed` axis (docs/sweep.md). */
    double mean(Metric m) const;

    /** Nearest-rank percentile (p in [0, 1]) of a metric over
     *  successful rows; fatal() if none succeeded. p95 goodput over
     *  failure realizations is the resilience studies' tail metric. */
    double percentile(Metric m, double p) const;

    /** Render the tidy table; see file comment for the column set. */
    std::string toCsv() const;
    json::Value toJson() const;

  private:
    std::string sweepName_;
    std::vector<std::string> axisNames_;
    std::vector<SweepResult> rows_;
};

} // namespace sweep
} // namespace astra

#endif // ASTRA_SWEEP_RESULT_STORE_H_
