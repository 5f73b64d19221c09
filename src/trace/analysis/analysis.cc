#include "trace/analysis/analysis.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/logging.h"
#include "common/table.h"
#include "common/units.h"

namespace astra {
namespace trace {
namespace analysis {

namespace {

/** End-time match tolerance. The DES hands exact timestamps to the
 *  tracer (0-delay deferrals preserve them), so dependent spans abut
 *  bit-exactly in memory; the tolerance only absorbs the micro-second
 *  rounding of a Chrome-file round trip (~1e-7 ns). */
constexpr double kEndEpsNs = 1e-3;

bool
isCommKind(const std::string &kind)
{
    return kind.rfind("net:", 0) == 0 || kind.rfind("coll:", 0) == 0;
}

/** Indices of `spans` entries, ordered by span end time (stable). */
std::vector<size_t>
sortByEnd(const std::vector<Span> &spans, std::vector<size_t> indices)
{
    std::stable_sort(indices.begin(), indices.end(),
                     [&](size_t a, size_t b) {
                         return spans[a].end() < spans[b].end();
                     });
    return indices;
}

/** Among `byEnd` (end-sorted indices), those ending within kEndEpsNs
 *  of `t`. */
void
endingAt(const std::vector<Span> &spans, const std::vector<size_t> &byEnd,
         double t, std::vector<size_t> &out)
{
    out.clear();
    auto lo = std::lower_bound(byEnd.begin(), byEnd.end(), t - kEndEpsNs,
                               [&](size_t i, double v) {
                                   return spans[i].end() < v;
                               });
    for (auto it = lo; it != byEnd.end(); ++it) {
        if (spans[*it].end() > t + kEndEpsNs)
            break;
        out.push_back(*it);
    }
}

/** Latest span end strictly before `t - kEndEpsNs` (wait target);
 *  -1 if none. */
double
latestEndBefore(const std::vector<Span> &spans,
                const std::vector<size_t> &byEnd, double t)
{
    auto it = std::lower_bound(byEnd.begin(), byEnd.end(), t - kEndEpsNs,
                               [&](size_t i, double v) {
                                   return spans[i].end() < v;
                               });
    if (it == byEnd.begin())
        return -1.0;
    return spans[*std::prev(it)].end();
}

} // namespace

CriticalPath
extractCriticalPath(const TraceData &data, int32_t pid)
{
    CriticalPath path;
    const std::vector<Span> &spans = data.spans;

    // Candidate sets, all restricted to this pid's rank tracks:
    // local spans (anything whose end is an event on its own track —
    // node execution, chunk phases) per rank, and message spans
    // (recorded on the source track, ending at delivery) per
    // *destination* rank.
    std::map<int32_t, std::vector<size_t>> local;
    std::map<int32_t, std::vector<size_t>> arrivals;
    double t_end = 0.0;
    int32_t end_tid = -1;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.pid != pid || s.track != TrackClass::Rank)
            continue;
        const SpanName &name = data.nameOf(s);
        bool is_msg = name.cat == "net" && name.peerDst >= 0;
        if (is_msg)
            arrivals[int32_t(name.peerDst)].push_back(i);
        else
            local[s.tid].push_back(i);
        if (s.end() > t_end) {
            t_end = s.end();
            end_tid = is_msg ? int32_t(name.peerDst) : s.tid;
        }
    }
    if (end_tid < 0)
        return path; // empty trace: zero-length path.
    for (auto &[tid, v] : local)
        v = sortByEnd(spans, std::move(v));
    for (auto &[tid, v] : arrivals)
        v = sortByEnd(spans, std::move(v));

    path.lengthNs = t_end;
    static const std::vector<size_t> kNone;
    auto listOf = [](const std::map<int32_t, std::vector<size_t>> &m,
                     int32_t tid) -> const std::vector<size_t> & {
        auto it = m.find(tid);
        return it == m.end() ? kNone : it->second;
    };

    int32_t cur = end_tid;
    double t = t_end;
    std::vector<size_t> candidates;
    while (t > kEndEpsNs) {
        // 1. A message delivered to this rank exactly now is the
        // dependency edge that gated progress: follow it to the
        // sender. Ties pick the longest transmission (the one that
        // constrained the longest), then recording order.
        endingAt(spans, listOf(arrivals, cur), t, candidates);
        size_t best = size_t(-1);
        for (size_t i : candidates) {
            if (spans[i].ts >= t - kEndEpsNs)
                continue; // need strict progress backwards.
            if (best == size_t(-1) || spans[i].dur > spans[best].dur ||
                (spans[i].dur == spans[best].dur && i < best))
                best = i;
        }
        if (best != size_t(-1)) {
            const Span &s = spans[best];
            path.segments.push_back(PathSegment{best, data.nameOf(s).kind,
                                                s.tid, data.nameOf(s).dim,
                                                s.ts, t});
            cur = s.tid; // the source rank.
            t = s.ts;
            continue;
        }
        // 2. A local span ending now extends the chain on this rank.
        // Chunk-phase spans outrank node spans (finer attribution);
        // then longest first.
        endingAt(spans, listOf(local, cur), t, candidates);
        for (size_t i : candidates) {
            if (spans[i].ts >= t - kEndEpsNs)
                continue;
            if (best == size_t(-1))
                best = i;
            else {
                bool coll_i = data.nameOf(spans[i]).cat == "coll";
                bool coll_b = data.nameOf(spans[best]).cat == "coll";
                if (coll_i != coll_b) {
                    if (coll_i)
                        best = i;
                } else if (spans[i].dur > spans[best].dur ||
                           (spans[i].dur == spans[best].dur && i < best)) {
                    best = i;
                }
            }
        }
        if (best != size_t(-1)) {
            const Span &s = spans[best];
            path.segments.push_back(PathSegment{best, data.nameOf(s).kind,
                                                cur, data.nameOf(s).dim,
                                                s.ts, t});
            t = s.ts;
            continue;
        }
        // 3. Nothing ends here: the rank was waiting. Tile the gap
        // back to its previous activity (or the run start).
        double prev = std::max(
            latestEndBefore(spans, listOf(local, cur), t),
            latestEndBefore(spans, listOf(arrivals, cur), t));
        if (prev < 0.0)
            prev = 0.0;
        path.segments.push_back(
            PathSegment{size_t(-1), "wait", cur, -1, prev, t});
        t = prev;
    }
    std::reverse(path.segments.begin(), path.segments.end());

    // Per-kind rollup over every rank-track span (on-path or not).
    std::map<std::string, KindRollup> kinds;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.pid != pid || s.track != TrackClass::Rank)
            continue;
        KindRollup &row = kinds[data.nameOf(s).kind];
        ++row.count;
        row.totalNs += s.dur;
    }
    for (const PathSegment &seg : path.segments) {
        if (seg.isWait()) {
            path.waitNs += seg.durNs();
            continue;
        }
        kinds[seg.kind].onPathNs += seg.durNs();
        if (seg.dim >= 0 && isCommKind(seg.kind))
            path.onPathCommByDim[seg.dim] += seg.durNs();
    }
    path.rollup.reserve(kinds.size());
    for (auto &[kind, row] : kinds) {
        row.kind = kind;
        row.slackNs = std::max(0.0, row.totalNs - row.onPathNs);
        path.rollup.push_back(std::move(row));
    }
    std::stable_sort(path.rollup.begin(), path.rollup.end(),
                     [](const KindRollup &a, const KindRollup &b) {
                         if (a.onPathNs != b.onPathNs)
                             return a.onPathNs > b.onPathNs;
                         return a.kind < b.kind;
                     });
    return path;
}

std::vector<LinkShare>
rankLinks(const TraceData &data, size_t top_k)
{
    const std::vector<LinkBusy> &links = data.links;
    std::vector<size_t> order;
    for (size_t i = 0; i < links.size(); ++i)
        if (links[i].busyNs > 0.0)
            order.push_back(i);
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         if (links[a].busyNs != links[b].busyNs)
                             return links[a].busyNs > links[b].busyNs;
                         return a < b;
                     });
    if (order.size() > top_k)
        order.resize(top_k);
    std::vector<LinkShare> out;
    out.reserve(order.size());
    for (size_t i : order) {
        LinkShare row;
        row.link = links[i].label.empty() ? "link " + std::to_string(i)
                                          : links[i].label;
        row.busyNs = links[i].busyNs;
        row.share = data.endNs > 0.0 ? row.busyNs / data.endNs : 0.0;
        out.push_back(std::move(row));
    }
    return out;
}

std::vector<DimCommRow>
dimCommBreakdown(const TraceData &data, int32_t pid)
{
    // Merged compute/memory intervals per rank: communication covered
    // by them is overlapped (hidden); the rest is exposed.
    std::map<int32_t, std::vector<std::pair<double, double>>> work;
    // Chunk-phase spans are the preferred comm evidence per dim; only
    // dims without any (spans-detail analytical runs) fall back to
    // message spans, which double-cover the same wire time.
    std::vector<const Span *> chunk, net;
    for (const Span &s : data.spans) {
        if (s.pid != pid || s.track != TrackClass::Rank)
            continue;
        const SpanName &name = data.nameOf(s);
        if (name.cat == "compute" || name.cat == "memory") {
            work[s.tid].emplace_back(s.ts, s.end());
        } else if (name.dim >= 0) {
            if (name.cat == "coll")
                chunk.push_back(&s);
            else if (name.cat == "net")
                net.push_back(&s);
        }
    }
    for (auto &[tid, iv] : work) {
        std::sort(iv.begin(), iv.end());
        size_t out = 0;
        for (const auto &[lo, hi] : iv) {
            if (out > 0 && lo <= iv[out - 1].second) {
                iv[out - 1].second = std::max(iv[out - 1].second, hi);
            } else {
                iv[out++] = {lo, hi};
            }
        }
        iv.resize(out);
    }
    auto overlap = [&](const Span &s) {
        auto it = work.find(s.tid);
        if (it == work.end())
            return 0.0;
        const auto &iv = it->second;
        double covered = 0.0;
        auto first = std::upper_bound(
            iv.begin(), iv.end(),
            std::make_pair(s.ts, std::numeric_limits<double>::max()));
        if (first != iv.begin())
            --first;
        for (auto w = first; w != iv.end() && w->first < s.end(); ++w) {
            double lo = std::max(w->first, s.ts);
            double hi = std::min(w->second, s.end());
            if (hi > lo)
                covered += hi - lo;
        }
        return covered;
    };

    std::map<int, DimCommRow> rows;
    std::map<int, bool> has_chunk;
    auto dim = [&](const Span *s) { return data.nameOf(*s).dim; };
    for (const Span *s : chunk)
        has_chunk[dim(s)] = true;
    for (const Span *s : chunk) {
        DimCommRow &row = rows[dim(s)];
        row.totalNs += s->dur;
        row.exposedNs += s->dur - overlap(*s);
    }
    for (const Span *s : net) {
        if (has_chunk[dim(s)])
            continue;
        DimCommRow &row = rows[dim(s)];
        row.totalNs += s->dur;
        row.exposedNs += s->dur - overlap(*s);
    }
    std::vector<DimCommRow> out;
    out.reserve(rows.size());
    for (auto &[dim, row] : rows) {
        row.dim = dim;
        row.overlappedNs = std::max(0.0, row.totalNs - row.exposedNs);
        out.push_back(row);
    }
    return out;
}

std::vector<StretchRow>
stretchTable(const TraceData &data, size_t top_k)
{
    std::map<std::string, StretchRow> kinds;
    for (const Span &s : data.spans) {
        if (s.track != TrackClass::Rank && s.track != TrackClass::Coll)
            continue;
        if (s.dur <= 0.0)
            continue;
        StretchRow &row = kinds[data.nameOf(s).kind];
        ++row.count;
        row.totalNs += s.dur;
        row.minNs = row.count == 1 ? s.dur : std::min(row.minNs, s.dur);
    }
    std::vector<StretchRow> out;
    out.reserve(kinds.size());
    for (auto &[kind, row] : kinds) {
        row.kind = kind;
        row.stretchNs = row.totalNs - double(row.count) * row.minNs;
        out.push_back(std::move(row));
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const StretchRow &a, const StretchRow &b) {
                         if (a.stretchNs != b.stretchNs)
                             return a.stretchNs > b.stretchNs;
                         return a.kind < b.kind;
                     });
    if (out.size() > top_k)
        out.resize(top_k);
    return out;
}

AnalysisResult
analyzeTrace(const TraceData &data, const AnalysisOptions &opts)
{
    AnalysisResult result;
    result.endNs = data.endNs;
    result.path = extractCriticalPath(data, opts.pid);
    result.links = rankLinks(data, opts.topLinks);
    result.dims = dimCommBreakdown(data, opts.pid);
    result.stretch = stretchTable(data, opts.topStretch);
    return result;
}

json::Value
analysisToJson(const AnalysisResult &result)
{
    json::Object doc;
    doc["kind"] = json::Value("astra-trace-analysis");
    doc["end_ns"] = json::Value(result.endNs);

    json::Object cp;
    cp["length_ns"] = json::Value(result.path.lengthNs);
    cp["wait_ns"] = json::Value(result.path.waitNs);
    json::Array segs;
    segs.reserve(result.path.segments.size());
    for (const PathSegment &seg : result.path.segments) {
        json::Object s;
        s["kind"] = json::Value(seg.kind);
        s["tid"] = json::Value(int64_t(seg.tid));
        s["dim"] = json::Value(int64_t(seg.dim));
        s["start_ns"] = json::Value(seg.startNs);
        s["end_ns"] = json::Value(seg.endNs);
        segs.push_back(json::Value(std::move(s)));
    }
    cp["segments"] = json::Value(std::move(segs));
    json::Array kinds;
    kinds.reserve(result.path.rollup.size());
    for (const KindRollup &row : result.path.rollup) {
        json::Object k;
        k["kind"] = json::Value(row.kind);
        k["count"] = json::Value(row.count);
        k["total_ns"] = json::Value(row.totalNs);
        k["on_path_ns"] = json::Value(row.onPathNs);
        k["slack_ns"] = json::Value(row.slackNs);
        kinds.push_back(json::Value(std::move(k)));
    }
    cp["kinds"] = json::Value(std::move(kinds));
    json::Array comm;
    for (const auto &[dim, ns] : result.path.onPathCommByDim) {
        json::Object c;
        c["dim"] = json::Value(int64_t(dim));
        c["on_path_ns"] = json::Value(ns);
        comm.push_back(json::Value(std::move(c)));
    }
    cp["on_path_comm_by_dim"] = json::Value(std::move(comm));
    doc["critical_path"] = json::Value(std::move(cp));

    json::Array links;
    for (const LinkShare &row : result.links) {
        json::Object l;
        l["link"] = json::Value(row.link);
        l["busy_ns"] = json::Value(row.busyNs);
        l["share"] = json::Value(row.share);
        links.push_back(json::Value(std::move(l)));
    }
    doc["links"] = json::Value(std::move(links));

    json::Array dims;
    for (const DimCommRow &row : result.dims) {
        json::Object d;
        d["dim"] = json::Value(int64_t(row.dim));
        d["total_ns"] = json::Value(row.totalNs);
        d["exposed_ns"] = json::Value(row.exposedNs);
        d["overlapped_ns"] = json::Value(row.overlappedNs);
        dims.push_back(json::Value(std::move(d)));
    }
    doc["dims"] = json::Value(std::move(dims));

    json::Array stretch;
    for (const StretchRow &row : result.stretch) {
        json::Object s;
        s["kind"] = json::Value(row.kind);
        s["count"] = json::Value(row.count);
        s["total_ns"] = json::Value(row.totalNs);
        s["min_ns"] = json::Value(row.minNs);
        s["stretch_ns"] = json::Value(row.stretchNs);
        stretch.push_back(json::Value(std::move(s)));
    }
    doc["stretch"] = json::Value(std::move(stretch));
    return json::Value(std::move(doc));
}

std::string
analysisToCsv(const AnalysisResult &result)
{
    std::string out = "section,name,dim,count,total_ns,value_ns,share\n";
    char buf[256];
    auto row = [&](const char *section, const std::string &name, int dim,
                   uint64_t count, double total, double value,
                   double share) {
        std::snprintf(buf, sizeof(buf), ",%d,%llu,%.3f,%.3f,%.6f\n",
                      dim, static_cast<unsigned long long>(count), total,
                      value, share);
        out += section;
        out += ',' + csvField(name) + buf;
    };
    for (const KindRollup &k : result.path.rollup)
        row("path_kind", k.kind, -1, k.count, k.totalNs, k.onPathNs,
            result.path.lengthNs > 0.0
                ? k.onPathNs / result.path.lengthNs
                : 0.0);
    row("path_kind", "wait", -1, 0, result.path.waitNs,
        result.path.waitNs,
        result.path.lengthNs > 0.0
            ? result.path.waitNs / result.path.lengthNs
            : 0.0);
    for (const LinkShare &l : result.links)
        row("link", l.link, -1, 0, l.busyNs, l.busyNs, l.share);
    for (const DimCommRow &d : result.dims)
        row("dim", "comm", d.dim, 0, d.totalNs, d.exposedNs,
            d.totalNs > 0.0 ? d.exposedNs / d.totalNs : 0.0);
    for (const StretchRow &s : result.stretch)
        row("stretch", s.kind, -1, s.count, s.totalNs, s.stretchNs,
            s.totalNs > 0.0 ? s.stretchNs / s.totalNs : 0.0);
    return out;
}

std::string
analysisSummary(const AnalysisResult &result)
{
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "trace end: %.3f ms\n"
                  "critical path: %.3f ms (%zu segments, wait %.3f ms "
                  "= %.1f%%)\n",
                  result.endNs / kMs, result.path.lengthNs / kMs,
                  result.path.segments.size(), result.path.waitNs / kMs,
                  result.path.lengthNs > 0.0
                      ? 100.0 * result.path.waitNs / result.path.lengthNs
                      : 0.0);
    out += buf;
    size_t shown = 0;
    for (const KindRollup &k : result.path.rollup) {
        if (k.onPathNs <= 0.0 || shown++ >= 8)
            break;
        std::snprintf(buf, sizeof(buf),
                      "  %-32s on-path %8.3f ms (%5.1f%%)  slack "
                      "%8.3f ms\n",
                      k.kind.c_str(), k.onPathNs / kMs,
                      100.0 * k.onPathNs / result.path.lengthNs,
                      k.slackNs / kMs);
        out += buf;
    }
    if (!result.links.empty()) {
        out += "top links by busy share:\n";
        for (const LinkShare &l : result.links) {
            std::snprintf(buf, sizeof(buf), "  %-24s busy %8.3f ms "
                          "(%5.1f%%)\n",
                          l.link.c_str(), l.busyNs / kMs,
                          100.0 * l.share);
            out += buf;
        }
    }
    if (!result.dims.empty()) {
        out += "communication exposure per dimension:\n";
        for (const DimCommRow &d : result.dims) {
            std::snprintf(buf, sizeof(buf),
                          "  d%-3d total %8.3f ms  exposed %8.3f ms  "
                          "overlapped %8.3f ms\n",
                          d.dim, d.totalNs / kMs, d.exposedNs / kMs,
                          d.overlappedNs / kMs);
            out += buf;
        }
    }
    if (!result.stretch.empty()) {
        out += "most-stretched span kinds (total - count x min):\n";
        for (const StretchRow &s : result.stretch) {
            std::snprintf(buf, sizeof(buf),
                          "  %-32s x%-6llu stretch %8.3f ms of "
                          "%8.3f ms\n",
                          s.kind.c_str(),
                          static_cast<unsigned long long>(s.count),
                          s.stretchNs / kMs, s.totalNs / kMs);
            out += buf;
        }
    }
    return out;
}

} // namespace analysis
} // namespace trace
} // namespace astra
