#include "trace/analysis/trace_data.h"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "common/json.h"
#include "common/logging.h"
#include "common/string_table.h"

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

/** The digits s[from, to) into `out`; false if they overflow it. */
template <typename T>
bool
parseDigits(const std::string &s, size_t from, size_t to, T &out)
{
    return std::from_chars(s.data() + from, s.data() + to, out).ec ==
           std::errc();
}

/** Parse the structured name tokens into the entry: an "a->b" peer
 *  pair anywhere, and a trailing " d<k>" dimension token. A number
 *  too large for its field leaves the field unset. */
void
parseNameTokens(SpanName &s)
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
    if (tok + 1 < n.size() && n[tok] == 'd' &&
        n.find_first_not_of("0123456789", tok + 1) == std::string::npos)
        parseDigits(n, tok + 1, n.size(), s.dim);
}

/** See SpanName::kind. */
std::string
kindOf(const SpanName &s)
{
    std::string out;
    out.reserve(s.cat.size() + s.unified.size() + 1);
    out += s.cat;
    out += ':';
    bool in_digits = false;
    for (char c : s.unified) {
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
    if (s.dim >= 0 && out.size() >= 2 &&
        out.compare(out.size() - 2, 2, "d#") == 0) {
        out.erase(out.size() - 1);
        out += std::to_string(s.dim);
    }
    return out;
}

/** Interns (cat, name) pairs into a TraceData's name table, parsing
 *  each distinct pair once. */
struct NameIndex
{
    std::vector<SpanName> &names;
    StringTable index;
    std::string key;

    uint32_t
    intern(std::string_view cat, std::string_view name)
    {
        // The category's length first keeps the pairs apart.
        const size_t cat_size = cat.size();
        key.assign(reinterpret_cast<const char *>(&cat_size),
                   sizeof cat_size);
        key += cat;
        key += name;
        const uint32_t id = index.intern(key);
        if (id < names.size())
            return id;
        SpanName &s = names.emplace_back();
        s.cat = cat;
        s.name = name;
        parseNameTokens(s);
        // "flow a->b" message spans (flow backend) carry the same
        // meaning as the other backends' "msg a->b".
        s.unified = s.cat == "net" && s.name.rfind("flow ", 0) == 0
                        ? "msg " + s.name.substr(5)
                        : s.name;
        s.kind = kindOf(s);
        return id;
    }
};

/** The keys of a trace event and of its args, each table in its
 *  enum's order. */
constexpr std::string_view kEventKeys[] = {"ph", "name", "cat", "pid",
                                           "tid", "ts", "dur", "args"};
enum { kPh, kName, kCat, kPid, kTid, kTs, kDur, kArgs };
constexpr std::string_view kArgKeys[] = {"name"};
enum { kArgName };

} // namespace

std::string
alignKey(const TraceData &data, const Span &span)
{
    const SpanName &name = data.nameOf(span);
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
    key += name.cat;
    key += '|';
    key += name.unified;
    return key;
}

TraceData
TraceData::fromTracer(Tracer &tracer)
{
    TraceData data;
    NameIndex names{data.names, {}, {}};
    tracer.closeOccupancy();
    data.spans.reserve(tracer.eventCount());
    tracer.visitEvents([&](const Tracer::ResolvedEvent &ev) {
        if (ev.instant || ev.open)
            return; // same drop policy as the Chrome export.
        Span s;
        s.ts = ev.ts;
        s.dur = ev.dur;
        s.pid = ev.pid;
        s.tid = ev.tid;
        s.name = names.intern(ev.cat, ev.name);
        s.track = trackClassOf(ev.tid);
        data.endNs = std::max(data.endNs, s.end());
        data.spans.push_back(s);
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
    NameIndex names{data.names, {}, {}};
    json::Reader r = json::Reader::open(path);
    json::Fields ev(kEventKeys), args(kArgKeys);
    auto add = [&] {
        ev.read(r, [&](size_t k) {
            if (k == kArgs)
                args.read(r);
            return k == kArgs;
        });
        std::string_view ph = ev.getString(kPh, "");
        if (ph == "M") {
            // Recover link-track labels from thread_name metadata.
            if (ev.getString(kName, "") != "thread_name")
                return;
            int32_t tid = static_cast<int32_t>(ev.getInt(kTid, 0));
            if (trackClassOf(tid) != TrackClass::Link || !ev.has(kArgs))
                return;
            size_t index = size_t(tid - Tracer::kLinkTidBase);
            if (index >= data.links.size())
                data.links.resize(index + 1);
            data.links[index].label = args.getString(kArgName, "");
            return;
        }
        if (ph != "X")
            return; // instants don't feed the analyzers.
        Span s;
        s.pid = static_cast<int32_t>(ev.getInt(kPid, 0));
        s.tid = static_cast<int32_t>(ev.getInt(kTid, 0));
        s.track = trackClassOf(s.tid);
        std::string_view cat = ev.getString(kCat, "");
        std::string_view name = ev.getString(kName, "");
        // Chrome trace timestamps are microseconds (docs/trace.md).
        s.ts = ev.getNumber(kTs, 0.0) * 1000.0;
        s.dur = ev.getNumber(kDur, 0.0) * 1000.0;
        s.name = names.intern(cat, name);
        data.spans.push_back(s);
    };
    // The events are the document or its "traceEvents", read in turn.
    bool found = false;
    auto events = [&] {
        ASTRA_USER_CHECK(!found, "%s: two traceEvents arrays", path.c_str());
        found = true;
        r.array(add);
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
    // The export writes spans in time order; others are sorted here.
    auto by_start = [](const Span &a, const Span &b) { return a.ts < b.ts; };
    if (!std::is_sorted(data.spans.begin(), data.spans.end(), by_start))
        std::stable_sort(data.spans.begin(), data.spans.end(), by_start);
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
