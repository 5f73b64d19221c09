#include "trace/analysis/trace_data.h"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "common/json.h"
#include "common/logging.h"

namespace astra {
namespace trace {
namespace analysis {

const char *
trackClassName(TrackClass c)
{
    switch (c) {
      case TrackClass::Rank:      return "rank";
      case TrackClass::Lifecycle: return "lifecycle";
      case TrackClass::Link:      return "link";
      case TrackClass::Flow:      return "flow";
      case TrackClass::Coll:      return "coll";
    }
    return "?";
}

TrackClass
trackClassOf(int32_t tid)
{
    if (tid >= Tracer::kCollTidBase)
        return TrackClass::Coll;
    if (tid >= Tracer::kFlowTidBase)
        return TrackClass::Flow;
    if (tid >= Tracer::kLinkTidBase)
        return TrackClass::Link;
    if (tid == Tracer::kLifecycleTid)
        return TrackClass::Lifecycle;
    return TrackClass::Rank;
}

namespace {

bool
allDigits(const std::string &s, size_t from, size_t to)
{
    if (from >= to)
        return false;
    for (size_t i = from; i < to; ++i)
        if (!std::isdigit(static_cast<unsigned char>(s[i])))
            return false;
    return true;
}

/** The digits s[from, to) into `out`; false if they overflow it. */
template <typename T>
bool
parseDigits(const std::string &s, size_t from, size_t to, T &out)
{
    return std::from_chars(s.data() + from, s.data() + to, out).ec ==
           std::errc();
}

/** Parse the structured name tokens into the span: an "a->b" peer
 *  pair anywhere, and a trailing " d<k>" dimension token. A number
 *  too large for its field leaves the field unset. */
void
parseNameTokens(Span &s)
{
    const std::string &n = s.name;
    size_t arrow = n.find("->");
    if (arrow != std::string::npos) {
        size_t lo = arrow;
        while (lo > 0 &&
               std::isdigit(static_cast<unsigned char>(n[lo - 1])))
            --lo;
        size_t hi = arrow + 2;
        size_t hi_end = hi;
        while (hi_end < n.size() &&
               std::isdigit(static_cast<unsigned char>(n[hi_end])))
            ++hi_end;
        int64_t src = 0, dst = 0;
        if (lo < arrow && hi_end > hi && parseDigits(n, lo, arrow, src) &&
            parseDigits(n, hi, hi_end, dst)) {
            s.peerSrc = src;
            s.peerDst = dst;
        }
    }
    size_t sp = n.rfind(' ');
    size_t tok = sp == std::string::npos ? 0 : sp + 1;
    if (tok < n.size() && n[tok] == 'd' &&
        allDigits(n, tok + 1, n.size()))
        parseDigits(n, tok + 1, n.size(), s.dim);
}

/** "flow a->b" message spans (flow backend) carry the same meaning as
 *  the other backends' "msg a->b"; unify so kinds and alignment keys
 *  agree across backends. */
std::string
unifiedName(const Span &s)
{
    if (s.cat == "net" && s.name.rfind("flow ", 0) == 0)
        return "msg " + s.name.substr(5);
    return s.name;
}

} // namespace

std::string
spanKind(const Span &span)
{
    std::string name = unifiedName(span);
    std::string out;
    out.reserve(span.cat.size() + name.size() + 1);
    out += span.cat;
    out += ':';
    bool in_digits = false;
    for (char c : name) {
        if (std::isdigit(static_cast<unsigned char>(c))) {
            if (!in_digits)
                out += '#';
            in_digits = true;
        } else {
            out += c;
            in_digits = false;
        }
    }
    // Keep the parsed dimension literal so kinds aggregate per dim
    // ("coll:c# p# d1", "net:msg #-># d0").
    if (span.dim >= 0 && out.size() >= 2 &&
        out.compare(out.size() - 2, 2, "d#") == 0) {
        out.erase(out.size() - 1);
        out += std::to_string(span.dim);
    }
    return out;
}

std::string
alignKey(const Span &span)
{
    std::string key = trackClassName(span.track);
    key += '|';
    key += std::to_string(span.pid);
    key += '|';
    // Collective-instance tracks are SlotPool slots: which slot an
    // instance lands on depends on backend timing, so the (ordinal-
    // tagged) name alone is the stable identity. Every other track id
    // is structural (rank, link index, source rank).
    if (span.track != TrackClass::Coll) {
        key += std::to_string(span.tid);
        key += '|';
    }
    key += span.cat;
    key += '|';
    key += unifiedName(span);
    return key;
}

TraceData
TraceData::fromTracer(Tracer &tracer)
{
    TraceData data;
    tracer.closeOccupancy();
    data.spans.reserve(tracer.eventCount());
    tracer.visitEvents([&](const Tracer::ResolvedEvent &ev) {
        if (ev.instant || ev.open)
            return; // same drop policy as the Chrome export.
        Span s;
        s.pid = ev.pid;
        s.tid = ev.tid;
        s.track = trackClassOf(ev.tid);
        s.cat = ev.cat;
        s.name = ev.name;
        s.ts = ev.ts;
        s.dur = ev.dur;
        parseNameTokens(s);
        data.endNs = std::max(data.endNs, s.end());
        data.spans.push_back(std::move(s));
    }); // visited in (ts, recording order): no sort needed.
    for (size_t i = 0; i < tracer.linkCount(); ++i)
        data.links.push_back(
            LinkBusy{tracer.linkLabel(i), tracer.linkBusyTotalNs(i)});
    return data;
}

TraceData
TraceData::fromChromeFile(const std::string &path)
{
    TraceData data;
    auto add = [&](const json::Value &ev) {
        std::string ph = ev.getString("ph", "");
        if (ph == "M") {
            // Recover link-track labels from thread_name metadata.
            if (ev.getString("name", "") != "thread_name")
                return;
            int32_t tid = static_cast<int32_t>(ev.getInt("tid", 0));
            if (trackClassOf(tid) != TrackClass::Link ||
                !ev.has("args"))
                return;
            size_t index = size_t(tid - Tracer::kLinkTidBase);
            if (index >= data.links.size())
                data.links.resize(index + 1);
            data.links[index].label =
                ev.at("args").getString("name", "");
            return;
        }
        if (ph != "X")
            return; // instants don't feed the analyzers.
        Span s;
        s.pid = static_cast<int32_t>(ev.getInt("pid", 0));
        s.tid = static_cast<int32_t>(ev.getInt("tid", 0));
        s.track = trackClassOf(s.tid);
        s.cat = ev.getString("cat", "");
        s.name = ev.getString("name", "");
        // Chrome trace timestamps are microseconds (docs/trace.md).
        s.ts = ev.getNumber("ts", 0.0) * 1000.0;
        s.dur = ev.getNumber("dur", 0.0) * 1000.0;
        parseNameTokens(s);
        data.spans.push_back(std::move(s));
    };
    // The events are the document or its "traceEvents", read in turn.
    json::Reader r = json::Reader::open(path);
    bool found = false;
    auto events = [&] {
        ASTRA_USER_CHECK(!found, "%s: two traceEvents arrays", path.c_str());
        found = true;
        r.array([&] { add(r.value()); });
    };
    if (r.next() == '[')
        events();
    else
        r.object([&](const std::string &key) {
            if (key == "traceEvents")
                events();
            else
                r.value();
        });
    r.end();
    ASTRA_USER_CHECK(found, "%s: no traceEvents array", path.c_str());
    std::stable_sort(data.spans.begin(), data.spans.end(),
                     [](const Span &a, const Span &b) {
                         return a.ts < b.ts;
                     });
    for (const Span &s : data.spans) {
        data.endNs = std::max(data.endNs, s.end());
        if (s.track != TrackClass::Link)
            continue;
        size_t index = size_t(s.tid - Tracer::kLinkTidBase);
        if (index >= data.links.size())
            data.links.resize(index + 1);
        data.links[index].busyNs += s.dur;
    }
    return data;
}

} // namespace analysis
} // namespace trace
} // namespace astra
