/**
 * @file
 * Normalized span model for trace analytics (docs/trace.md,
 * "Analysis").
 *
 * A TraceData is the analyzer-facing view of one run's timeline:
 * every recorded span with its track class resolved from the tid
 * namespace, each distinct span name once with its structure parsed
 * out, plus each link's total busy time. It is built either directly
 * from an in-memory Tracer (the no-reparse path Simulator uses) or by
 * loading an exported Chrome trace-event JSON file (the trace_analyze
 * CLI path) — both yield the same model, so every analyzer works on
 * live and archived traces alike.
 */
#ifndef ASTRA_TRACE_ANALYSIS_TRACE_DATA_H_
#define ASTRA_TRACE_ANALYSIS_TRACE_DATA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace/tracer.h"

namespace astra {
namespace trace {
namespace analysis {

/** Which track-namespace region a span was recorded on
 *  (docs/trace.md tid table). */
enum class TrackClass : uint8_t {
    Rank,      //!< per-rank: node spans, chunk phases, message spans.
    Lifecycle, //!< job lifecycle + fault instants.
    Link,      //!< fabric link occupancy.
    Flow,      //!< per-source flow rate segments.
    Coll,      //!< collective-instance tracks.
};

const char *trackClassName(TrackClass c);
TrackClass trackClassOf(int32_t tid);

/** One distinct (category, name) pair of a trace, parsed once. */
struct SpanName
{
    std::string cat;
    std::string name;
    /** Topology dimension parsed from a trailing "d<k>" name token
     *  (chunk phases, message spans); -1 when absent. */
    int dim = -1;
    /** Message endpoints parsed from an "a->b" name token (net
     *  message spans, flow rate segments); -1 when absent. */
    int64_t peerSrc = -1;
    int64_t peerDst = -1;
    /** The name with the flow backend's "flow a->b" message spans
     *  renamed "msg a->b", so both backends' spans align. */
    std::string unified;
    /** Stable span taxonomy used by the stretch table, the differ, and
     *  the critical path's per-kind rollups: `cat:name` with every
     *  digit run in the unified name collapsed to '#', except that a
     *  parsed dimension is kept literal (so "coll:c# p# d1" aggregates
     *  per dimension). */
    std::string kind;
};

/** One complete span. */
struct Span
{
    double ts = 0.0;  //!< start, simulated ns.
    double dur = 0.0; //!< duration, ns (>= 0).
    int32_t pid = 0;
    int32_t tid = 0;
    uint32_t name = 0; //!< index into TraceData::names.
    TrackClass track = TrackClass::Rank;

    double end() const { return ts + dur; }
};

/** One fabric link's label and total busy time. */
struct LinkBusy
{
    std::string label;
    double busyNs = 0.0;
};

/** See file comment. */
struct TraceData
{
    /** All complete spans, sorted by (ts, recording order). Open
     *  (never-closed) spans and instant markers are dropped — same
     *  policy as the Chrome export. */
    std::vector<Span> spans;
    std::vector<SpanName> names; //!< each distinct (cat, name) once.
    std::vector<LinkBusy> links; //!< indexed by fabric link id.
    double endNs = 0.0;          //!< max span end (0 if no spans).

    /** Ingest an in-memory tracer (flushes pending link occupancy
     *  first; purely observational otherwise). */
    static TraceData fromTracer(Tracer &tracer);
    /** Load an exported Chrome trace-event JSON file. Link-track
     *  labels are recovered from thread_name metadata, and busy time
     *  is the sum of each link track's occupancy spans (fractional
     *  flow rates leave none). fatal() on unreadable/malformed
     *  files. */
    static TraceData fromChromeFile(const std::string &path);

    const SpanName &nameOf(const Span &s) const { return names[s.name]; }
};

/** Per-span alignment key for cross-run diffing: track class + pid +
 *  cat + normalized-prefix name. Collective-instance spans key on
 *  their (ordinal-tagged) name alone — their tid is a pool slot, not
 *  a stable identity; rank/link/flow tracks include the tid. */
std::string alignKey(const TraceData &data, const Span &span);

} // namespace analysis
} // namespace trace
} // namespace astra

#endif // ASTRA_TRACE_ANALYSIS_TRACE_DATA_H_
