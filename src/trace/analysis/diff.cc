#include "trace/analysis/diff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/table.h"
#include "common/units.h"

namespace astra {
namespace trace {
namespace analysis {

namespace {

/** Per-alignKey span durations in time order (ts, recording order —
 *  TraceData::spans is already sorted that way). */
std::map<std::string, std::vector<const Span *>>
groupByKey(const TraceData &data)
{
    std::map<std::string, std::vector<const Span *>> out;
    for (const Span &s : data.spans) {
        // Only workload-semantic tracks participate: rank timelines
        // (node spans, chunk phases, messages) and collective
        // instances. Infrastructure tracks — link occupancy, flow
        // rate segments, lifecycle markers — describe the fabric's
        // mechanism, are backend-private (rate segments only exist on
        // the flow backend), and double-count time the rank tracks
        // already carry; including them would let instrumentation
        // shape dominate a cross-backend diff.
        if (s.track != TrackClass::Rank && s.track != TrackClass::Coll)
            continue;
        out[alignKey(data, s)].push_back(&s);
    }
    return out;
}

} // namespace

TraceDiff
diffTraces(const TraceData &a, const TraceData &b)
{
    TraceDiff diff;
    diff.endANs = a.endNs;
    diff.endBNs = b.endNs;
    diff.totalDeltaNs = b.endNs - a.endNs;

    auto ga = groupByKey(a);
    auto gb = groupByKey(b);
    std::map<std::string, DiffKindRow> kinds;
    for (const auto &[key, sa] : ga) {
        auto it = gb.find(key);
        const std::vector<const Span *> empty;
        const std::vector<const Span *> &sb =
            it == gb.end() ? empty : it->second;
        DiffKindRow &row = kinds[a.nameOf(*sa.front()).kind];
        size_t matched = std::min(sa.size(), sb.size());
        row.matched += matched;
        for (size_t i = 0; i < matched; ++i)
            row.matchedDeltaNs += sb[i]->dur - sa[i]->dur;
        for (const Span *s : sa) {
            ++row.countA;
            row.totalANs += s->dur;
        }
        for (const Span *s : sb) {
            ++row.countB;
            row.totalBNs += s->dur;
        }
    }
    for (const auto &[key, sb] : gb) {
        if (ga.count(key))
            continue; // handled above.
        DiffKindRow &row = kinds[b.nameOf(*sb.front()).kind];
        for (const Span *s : sb) {
            ++row.countB;
            row.totalBNs += s->dur;
        }
    }
    diff.kinds.reserve(kinds.size());
    for (auto &[kind, row] : kinds) {
        row.kind = kind;
        row.deltaNs = row.totalBNs - row.totalANs;
        diff.kinds.push_back(std::move(row));
    }
    std::stable_sort(diff.kinds.begin(), diff.kinds.end(),
                     [](const DiffKindRow &x, const DiffKindRow &y) {
                         double ax = std::abs(x.deltaNs);
                         double ay = std::abs(y.deltaNs);
                         if (ax != ay)
                             return ax > ay;
                         return x.kind < y.kind;
                     });
    return diff;
}

json::Value
diffToJson(const TraceDiff &diff)
{
    json::Object doc;
    doc["kind"] = json::Value("astra-trace-diff");
    doc["end_a_ns"] = json::Value(diff.endANs);
    doc["end_b_ns"] = json::Value(diff.endBNs);
    doc["total_delta_ns"] = json::Value(diff.totalDeltaNs);
    json::Array rows;
    rows.reserve(diff.kinds.size());
    for (const DiffKindRow &row : diff.kinds) {
        json::Object r;
        r["kind"] = json::Value(row.kind);
        r["count_a"] = json::Value(row.countA);
        r["count_b"] = json::Value(row.countB);
        r["total_a_ns"] = json::Value(row.totalANs);
        r["total_b_ns"] = json::Value(row.totalBNs);
        r["delta_ns"] = json::Value(row.deltaNs);
        r["matched"] = json::Value(row.matched);
        r["matched_delta_ns"] = json::Value(row.matchedDeltaNs);
        rows.push_back(json::Value(std::move(r)));
    }
    doc["kinds"] = json::Value(std::move(rows));
    return json::Value(std::move(doc));
}

std::string
diffToCsv(const TraceDiff &diff)
{
    std::string out = "kind,count_a,count_b,total_a_ns,total_b_ns,"
                      "delta_ns,matched_delta_ns\n";
    char buf[192];
    for (const DiffKindRow &row : diff.kinds) {
        std::snprintf(buf, sizeof(buf),
                      ",%llu,%llu,%.3f,%.3f,%.3f,%.3f\n",
                      static_cast<unsigned long long>(row.countA),
                      static_cast<unsigned long long>(row.countB),
                      row.totalANs, row.totalBNs, row.deltaNs,
                      row.matchedDeltaNs);
        out += csvField(row.kind);
        out += buf;
    }
    return out;
}

std::string
diffSummary(const TraceDiff &diff, size_t top_k)
{
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "run A end: %.3f ms   run B end: %.3f ms   delta: "
                  "%+.3f ms (%+.1f%%)\n",
                  diff.endANs / kMs, diff.endBNs / kMs,
                  diff.totalDeltaNs / kMs,
                  diff.endANs > 0.0
                      ? 100.0 * diff.totalDeltaNs / diff.endANs
                      : 0.0);
    out += buf;
    out += "span kinds by |delta|:\n";
    size_t shown = 0;
    for (const DiffKindRow &row : diff.kinds) {
        if (shown++ >= top_k)
            break;
        std::snprintf(buf, sizeof(buf),
                      "  %-32s %+10.3f ms (matched %+10.3f ms, "
                      "%llu/%llu spans)\n",
                      row.kind.c_str(), row.deltaNs / kMs,
                      row.matchedDeltaNs / kMs,
                      static_cast<unsigned long long>(row.countA),
                      static_cast<unsigned long long>(row.countB));
        out += buf;
    }
    return out;
}

} // namespace analysis
} // namespace trace
} // namespace astra
