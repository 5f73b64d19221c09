/**
 * @file
 * Cross-run trace diffing (docs/trace.md, "Analysis").
 *
 * Two runs' spans are aligned by their stable taxonomy — alignKey()
 * (track class + pid + tid + cat + normalized name) — and, within one
 * key, by ordinal: the i-th occurrence in time order on side A pairs
 * with the i-th on side B. Matched pairs contribute their duration
 * delta; unmatched spans (count changes) contribute whole durations.
 * Rows aggregate per span kind (SpanName::kind) and sort by |delta|
 * descending, so the top row names the span population that explains
 * most of the total-time difference between the runs.
 */
#ifndef ASTRA_TRACE_ANALYSIS_DIFF_H_
#define ASTRA_TRACE_ANALYSIS_DIFF_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "trace/analysis/trace_data.h"

namespace astra {
namespace trace {
namespace analysis {

/** Per-kind aggregate of aligned span deltas. */
struct DiffKindRow
{
    std::string kind;      //!< SpanName::kind both sides share.
    uint64_t countA = 0;   //!< spans of this kind in run A.
    uint64_t countB = 0;
    double totalANs = 0.0; //!< duration sums.
    double totalBNs = 0.0;
    /** totalB − totalA: this kind's contribution to the run-time
     *  delta (duration drift + count changes together). */
    double deltaNs = 0.0;
    /** Σ (durB − durA) over ordinal-matched pairs only — duration
     *  drift isolated from count changes. */
    double matchedDeltaNs = 0.0;
    uint64_t matched = 0;  //!< ordinal-matched pair count.
};

struct TraceDiff
{
    double endANs = 0.0;
    double endBNs = 0.0;
    double totalDeltaNs = 0.0; //!< endB − endA.
    /** Sorted by |deltaNs| descending (kind ascending on ties). */
    std::vector<DiffKindRow> kinds;
};

TraceDiff diffTraces(const TraceData &a, const TraceData &b);

json::Value diffToJson(const TraceDiff &diff);
/** `kind,count_a,count_b,total_a_ns,total_b_ns,delta_ns,
 *  matched_delta_ns` rows in sorted order. */
std::string diffToCsv(const TraceDiff &diff);
/** Human-readable console block (trace_analyze --diff). */
std::string diffSummary(const TraceDiff &diff, size_t top_k = 12);

} // namespace analysis
} // namespace trace
} // namespace astra

#endif // ASTRA_TRACE_ANALYSIS_DIFF_H_
