/**
 * @file
 * Trace analytics: critical-path extraction and bottleneck
 * attribution over a TraceData (docs/trace.md, "Analysis").
 *
 * Critical path — the longest dependent chain of recorded spans,
 * reconstructed backwards from the last rank-track event by exact
 * end-time matching: an incoming message span whose delivery
 * coincides with the current point hops the walk to the sender's
 * rank; otherwise the local span ending there extends the chain on
 * the same rank; otherwise the gap back to the previous activity
 * becomes an explicit "wait" segment. Segments tile [0, path end]
 * exactly, so their durations sum to the path length, which in turn
 * is bounded by the simulated total time. Off-path span time shows up
 * as per-kind slack (recorded − on-path time): spans fully overlapped
 * by the chain elsewhere did not gate the run.
 *
 * Bottleneck attribution — per-link busy-share ranking (each link's
 * busy total over the trace end),
 * per-dimension exposed vs overlapped communication (chunk-phase time
 * minus the portion covered by compute/memory node spans on the same
 * rank), and the stretch table: span kinds whose total duration most
 * exceeds `count × min duration` — the kind's least-contended
 * observed instance standing in for the uncontended estimate.
 *
 * Everything here is deterministic (stable orders, no host state) and
 * purely observational.
 */
#ifndef ASTRA_TRACE_ANALYSIS_ANALYSIS_H_
#define ASTRA_TRACE_ANALYSIS_ANALYSIS_H_

#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "trace/analysis/trace_data.h"

namespace astra {
namespace trace {
namespace analysis {

/** One tile of the critical path (time-ascending, gap-free). */
struct PathSegment
{
    /** Index into TraceData::spans, or SIZE_MAX for a wait segment. */
    size_t spanIndex = size_t(-1);
    std::string kind; //!< the span's SpanName::kind, or "wait".
    int32_t tid = -1; //!< rank track the segment lies on.
    int dim = -1;     //!< network dimension (message/phase segments).
    double startNs = 0.0;
    double endNs = 0.0;

    double durNs() const { return endNs - startNs; }
    bool isWait() const { return spanIndex == size_t(-1); }
};

/** Per-kind rollup of rank-track span time vs the critical path. */
struct KindRollup
{
    std::string kind;
    uint64_t count = 0;    //!< spans of this kind (rank tracks).
    double totalNs = 0.0;  //!< recorded duration sum.
    double onPathNs = 0.0; //!< portion lying on the critical path.
    /** Off-path time: recorded − on-path. Fully-slack kinds were
     *  completely overlapped by the chain and did not gate the run. */
    double slackNs = 0.0;
};

/** See file comment. */
struct CriticalPath
{
    std::vector<PathSegment> segments; //!< tile [0, lengthNs].
    double lengthNs = 0.0; //!< last rank-track span end (= Σ segment).
    double waitNs = 0.0;   //!< total wait-segment time on the path.
    /** Rollups sorted by on-path time descending (kind ascending on
     *  ties); covers every rank-track span kind, on-path or not. */
    std::vector<KindRollup> rollup;
    /** On-path communication time (message + chunk-phase segments)
     *  per network dimension. */
    std::map<int, double> onPathCommByDim;
};

/** Busy share of one fabric link over the trace window. */
struct LinkShare
{
    std::string link;   //!< registered label, or "link <i>".
    double busyNs = 0.0;
    double share = 0.0; //!< busyNs / trace end.
};

/** Exposed vs overlapped communication of one network dimension. */
struct DimCommRow
{
    int dim = 0;
    double totalNs = 0.0;      //!< per-rank comm span time, summed.
    double exposedNs = 0.0;    //!< not covered by compute/memory.
    double overlappedNs = 0.0; //!< total − exposed.
};

/** One stretch-table row (see file comment). */
struct StretchRow
{
    std::string kind;
    uint64_t count = 0;
    double totalNs = 0.0;
    double minNs = 0.0;     //!< least-contended observed duration.
    double stretchNs = 0.0; //!< total − count × min.
};

struct AnalysisOptions
{
    int32_t pid = 0;       //!< process to analyze (0 = fabric).
    size_t topLinks = 5;   //!< link-ranking rows kept.
    size_t topStretch = 10; //!< stretch-table rows kept.
};

struct AnalysisResult
{
    double endNs = 0.0; //!< trace end (max span end, all tracks).
    CriticalPath path;
    std::vector<LinkShare> links;    //!< busiest first.
    std::vector<DimCommRow> dims;    //!< dimension ascending.
    std::vector<StretchRow> stretch; //!< most-stretched first.
};

CriticalPath extractCriticalPath(const TraceData &data, int32_t pid = 0);
std::vector<LinkShare> rankLinks(const TraceData &data, size_t top_k);
std::vector<DimCommRow> dimCommBreakdown(const TraceData &data,
                                         int32_t pid = 0);
std::vector<StretchRow> stretchTable(const TraceData &data,
                                     size_t top_k);

/** Run all analyzers. */
AnalysisResult analyzeTrace(const TraceData &data,
                            const AnalysisOptions &opts = {});

json::Value analysisToJson(const AnalysisResult &result);
/** Tidy CSV: `section,name,dim,count,total_ns,value_ns,share` where
 *  `value_ns` is on-path time (path_kind rows), exposed time (dim
 *  rows), stretch (stretch rows), or busy time (link rows). */
std::string analysisToCsv(const AnalysisResult &result);
/** Human-readable console block (trace_analyze). */
std::string analysisSummary(const AnalysisResult &result);

} // namespace analysis
} // namespace trace
} // namespace astra

#endif // ASTRA_TRACE_ANALYSIS_ANALYSIS_H_
