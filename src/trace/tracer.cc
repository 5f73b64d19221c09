#include "trace/tracer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "common/cli.h"
#include "common/logging.h"
#include "common/output_file.h"
#include "event/event_queue.h"

namespace astra {
namespace trace {

void
addQueueProfile(const QueueProfile &prof, Counters &counters)
{
    auto trimmed = [](const std::array<uint64_t, 32> &hist) {
        size_t n = hist.size();
        while (n > 0 && hist[n - 1] == 0)
            --n;
        return std::vector<uint64_t>(hist.begin(), hist.begin() + n);
    };
    if (prof.depthSamples > 0) {
        counters.histograms["event_queue_depth_log2"] =
            trimmed(prof.depthHist);
        counters.add("queue_depth_samples", double(prof.depthSamples));
    }
    if (prof.bucketActivations > 0) {
        counters.histograms["event_bucket_size_log2"] =
            trimmed(prof.bucketHist);
        counters.add("queue_bucket_activations",
                     double(prof.bucketActivations));
        counters.add("queue_bucket_sorts", double(prof.bucketSorts));
    }
    const std::array<uint64_t, 4> &placed = prof.timedByLevel;
    if (placed[0] + placed[1] + placed[2] + placed[3] > 0) {
        counters.add("queue_timed_level0", double(placed[0]));
        counters.add("queue_timed_level1", double(placed[1]));
        counters.add("queue_timed_level2", double(placed[2]));
        counters.add("queue_timed_heap", double(placed[3]));
        counters.add("queue_moved_down", double(prof.movedDown));
    }
    if (prof.callbackSamples > 0) {
        counters.add("queue_callback_samples",
                     double(prof.callbackSamples));
        counters.addWall("wall_callbacks_seconds",
                         prof.callbackWallSeconds);
    }
}

TraceConfig
traceConfigFromJson(const json::Value &doc, const std::string &path)
{
    json::checkKeys(doc, path,
                    {"file", "detail", "utilization_bucket_ns",
                     "utilization_file", "rate_epsilon", "analysis",
                     "analysis_file"});
    TraceConfig cfg;
    cfg.file = doc.getString("file", "");
    cfg.utilizationFile = doc.getString("utilization_file", "");
    cfg.analysisFile = doc.getString("analysis_file", "");
    cfg.analysis =
        doc.getBool("analysis", false) || !cfg.analysisFile.empty();
    if (doc.has("detail")) {
        const std::string &name = doc.at("detail").asString();
        const char *names[] = {"off", "spans", "full"};
        auto it = std::find(std::begin(names), std::end(names), name);
        ASTRA_USER_CHECK(it != std::end(names),
                         "%s.detail: unknown trace detail \"%s\" "
                         "(expected off|spans|full)",
                         path.c_str(), name.c_str());
        cfg.detail = static_cast<Detail>(it - std::begin(names));
    } else if (!cfg.file.empty() || !cfg.utilizationFile.empty()) {
        cfg.detail = Detail::Spans;
    } else if (cfg.analysis) {
        cfg.detail = Detail::Full;
    }
    ASTRA_USER_CHECK(!cfg.analysis || cfg.enabled(),
                     "%s.analysis: requires detail \"spans\" or \"full\" "
                     "(the analyzers consume recorded spans)",
                     path.c_str());
    cfg.utilizationBucketNs = doc.getNumber("utilization_bucket_ns", 0.0);
    ASTRA_USER_CHECK(std::isfinite(cfg.utilizationBucketNs) &&
                         cfg.utilizationBucketNs >= 0.0,
                     "%s.utilization_bucket_ns: must be a finite number "
                     ">= 0", path.c_str());
    cfg.rateEpsilon = doc.getNumber("rate_epsilon", cfg.rateEpsilon);
    ASTRA_USER_CHECK(std::isfinite(cfg.rateEpsilon) &&
                         cfg.rateEpsilon >= 0.0,
                     "%s.rate_epsilon: must be a finite number >= 0",
                     path.c_str());
    return cfg;
}

FlagGroup
cliFlags(const char *file_flag)
{
    return {
        {file_flag, FlagKind::Value, "write the Chrome trace timeline",
         "file"},
        {"trace-detail", FlagKind::Value, "off | spans | full", "detail"},
        {"trace-util", FlagKind::Value, "write link utilization",
         "utilization_file"},
        {"trace-util-bucket", FlagKind::Number, "its bucket in ns",
         "utilization_bucket_ns"},
        {"trace-rate-eps", FlagKind::Number, "flow rate coalescing",
         "rate_epsilon"},
        {"trace-analysis", FlagKind::Switch, "critical path, hot links",
         "analysis"},
        {"trace-analysis-out", FlagKind::Value, "write the analysis",
         "analysis_file"}};
}

TraceConfig
traceConfigFromCli(const CommandLine &cl, const char *file_flag,
                   json::Value base)
{
    cl.writeKeys(cliFlags(file_flag), base);
    return traceConfigFromJson(base, "trace");
}

Tracer::Tracer(TraceConfig cfg) : cfg_(std::move(cfg))
{
    // A utilization file needs the series.
    if (!cfg_.utilizationFile.empty() && cfg_.utilizationBucketNs <= 0.0) {
        cfg_.utilizationBucketNs = 1000.0;
        impliedBucket_ = true;
    }
}

/** Recycled event blocks. A fresh 4 MB block costs ~a thousand page
 *  faults to fill — a measurable slice of the recording budget — so
 *  retired tracers donate their blocks (pages already resident) to the
 *  next tracer on the same thread instead of freeing them. Capped so a
 *  one-off huge trace can't pin memory forever; thread-local because
 *  sweep workers each run their own simulators. */
struct Tracer::BlockPool
{
    std::vector<std::unique_ptr<Event[]>> blocks;

    BlockPool() { ptr() = this; }
    ~BlockPool() { ptr() = nullptr; }

    /** Trivially-destructible, so it stays readable after the pool
     *  itself is gone — the ctor/dtor above keep it pointing at the
     *  live pool or null. */
    static BlockPool *&ptr()
    {
        thread_local BlockPool *p = nullptr;
        return p;
    }
};

Tracer::BlockPool *
Tracer::blockPool()
{
    // The declaration only constructs on the first pass; afterwards
    // (including after this thread's pool was destroyed — static
    // destruction order is arbitrary relative to tracer owners) the
    // self-registering pointer is the source of truth.
    thread_local BlockPool pool;
    return BlockPool::ptr();
}

Tracer::~Tracer()
{
    constexpr size_t kBlockPoolMax = 8; // x 4 MB retained per thread.
    BlockPool *pool = blockPool();
    if (pool == nullptr)
        return; // pool already torn down: just free the blocks.
    for (auto &block : blocks_) {
        if (pool->blocks.size() >= kBlockPoolMax)
            break;
        pool->blocks.push_back(std::move(block));
    }
}

void
Tracer::newBlock()
{
    // One cache line per append on LP64 (see the Event doc comment).
    static_assert(sizeof(void *) != 8 || sizeof(Event) == 64,
                  "Event outgrew a cache line — recording cost "
                  "regresses ~4x (bench_trace_overhead)");
    BlockPool *pool = blockPool();
    if (pool != nullptr && !pool->blocks.empty()) {
        blocks_.push_back(std::move(pool->blocks.back()));
        pool->blocks.pop_back();
    } else {
        // Uninitialized storage on purpose: zeroing 4 MB up front
        // would touch every page whether or not the trace grows into
        // it.
        blocks_.emplace_back(new Event[kBlockSize]);
    }
    cur_ = blocks_.back().get();
    curEnd_ = cur_ + kBlockSize;
}

void
Tracer::spanStr(int32_t pid, int32_t tid, const char *cat,
                std::string_view name, TimeNs ts, TimeNs dur)
{
    spanName(pid, tid, cat, internName(name), ts, dur);
}

void
Tracer::instantStr(int32_t pid, int32_t tid, const char *cat,
                   std::string_view name, TimeNs ts)
{
    instant(pid, tid, cat, nullptr, ts, (long long)internName(name));
}

Tracer::SpanId
Tracer::beginSpan(int32_t pid, int32_t tid, const char *cat,
                  std::string_view name, TimeNs ts)
{
    spanName(pid, tid, cat, internName(name), ts, 0.0);
    cur_[-1].dur = kOpen; // until endSpan().
    return SpanId(eventCount() - 1);
}

size_t
Tracer::bytesInUse() const
{
    size_t bytes = blocks_.size() * kBlockSize * sizeof(Event) +
                   blocks_.capacity() * sizeof(void *) +
                   names_.bytesInUse() +
                   links_.capacity() * sizeof(LinkState) +
                   busyTotalNs_.capacity() * sizeof(double);
    for (const LinkState &ls : links_)
        bytes += ls.busyNs.capacity() * sizeof(double);
    return bytes;
}

void
Tracer::endSpan(SpanId id, TimeNs ts)
{
    ASTRA_ASSERT(id < eventCount(), "endSpan(%u): bad span id", id);
    Event &ev = eventAt(id);
    ASTRA_ASSERT(ev.dur == kOpen, "endSpan(%u): span already closed", id);
    ev.dur = std::max(0.0, double(ts) - ev.ts);
}

void
Tracer::processName(int32_t pid, std::string name)
{
    processNames_[pid] = std::move(name);
}

void
Tracer::threadName(int32_t pid, int32_t tid, std::string name)
{
    threadNames_[{pid, tid}] = std::move(name);
}

void
Tracer::registerLink(uint32_t index, std::string label)
{
    if (index >= links_.size())
        links_.resize(index + 1);
    if (links_[index].label.empty())
        links_[index].label = std::move(label);
}

void
Tracer::accumulateBuckets(LinkState &ls, TimeNs t0, TimeNs t1,
                          double fraction)
{
    while (impliedBucket_ &&
           size_t(t1 / cfg_.utilizationBucketNs) >= kMaxImpliedBuckets)
        coarsenBuckets();
    const double w = cfg_.utilizationBucketNs;
    size_t first = size_t(t0 / w);
    size_t last = size_t(t1 / w);
    if (last >= ls.busyNs.size())
        ls.busyNs.resize(last + 1, 0.0);
    for (size_t b = first; b <= last; ++b) {
        double lo = std::max(double(t0), double(b) * w);
        double hi = std::min(double(t1), double(b + 1) * w);
        if (hi > lo)
            ls.busyNs[b] += (hi - lo) * fraction;
    }
}

void
Tracer::coarsenBuckets()
{
    cfg_.utilizationBucketNs *= 2.0;
    for (LinkState &ls : links_) {
        std::vector<double> &busy = ls.busyNs;
        for (size_t b = 0; 2 * b < busy.size(); ++b)
            busy[b] = busy[2 * b] +
                      (2 * b + 1 < busy.size() ? busy[2 * b + 1] : 0.0);
        busy.resize((busy.size() + 1) / 2);
    }
}

void
Tracer::linkBusy(uint32_t index, TimeNs t0, TimeNs t1, double fraction)
{
    if (t1 <= t0 || fraction <= 0.0)
        return;
    if (index >= links_.size())
        links_.resize(index + 1);
    LinkState &ls = links_[index];
    if (cfg_.analysis) {
        busyTotalNs_.resize(links_.size());
        busyTotalNs_[index] += (t1 - t0) * fraction;
    }
    if (utilization())
        accumulateBuckets(ls, t0, t1, fraction);
    if (full() && fraction >= 1.0) {
        // Coalesce contiguous busy intervals into one occupancy span
        // so dense packet trains cost one event per idle gap, not one
        // per packet.
        if (ls.openT1 >= 0.0 && t0 <= ls.openT1 + 1e-9) {
            ls.openT1 = std::max(ls.openT1, double(t1));
        } else {
            if (ls.openT1 >= 0.0)
                span(0, kLinkTidBase + int32_t(index), "link", "busy",
                     ls.openT0, ls.openT1 - ls.openT0);
            ls.openT0 = t0;
            ls.openT1 = t1;
        }
    }
}

void
Tracer::closeOccupancy()
{
    for (uint32_t i = 0; i < links_.size(); ++i) {
        LinkState &ls = links_[i];
        if (ls.openT1 >= 0.0) {
            span(0, kLinkTidBase + int32_t(i), "link", "busy", ls.openT0,
                 ls.openT1 - ls.openT0);
            ls.openT1 = -1.0;
        }
    }
}

std::string_view
Tracer::eventName(const Event &ev, NameBuffer &buf) const
{
    if (ev.fmt == nullptr)
        return names_[uint32_t(ev.a0)];
    int n = std::snprintf(buf, sizeof(buf), ev.fmt, ev.a0, ev.a1, ev.a2);
    return {buf, std::min(size_t(std::max(n, 0)), sizeof(buf) - 1)};
}

/**
 * Yields every event index in (ts, recording index) order: exactly the
 * order a stable sort by ts gives, without sorting the whole log.
 * Events are grouped into one run per (pid, tid) track, in recording
 * order. Most tracks record in time order already (each is one rank,
 * link or flow source); a run that is not gets a stable sort of its
 * own. A binary heap then merges the runs on (ts, recording index).
 * The runs take 4 bytes per event.
 */
class Tracer::TimeOrder
{
  public:
    explicit TimeOrder(const Tracer &tracer);
    /** Store the next index in `index`; false once all are out. */
    bool next(uint32_t &index);

  private:
    struct Head
    {
        double ts;
        uint32_t index;
        uint32_t track;
    };
    /** Heap order: the earliest (ts, index) head on top. */
    static bool after(const Head &a, const Head &b)
    {
        return a.ts > b.ts || (a.ts == b.ts && a.index > b.index);
    }
    Head headOf(uint32_t track) const
    {
        uint32_t index = order_[cursor_[track]];
        return Head{tracer_.eventAt(index).ts, index, track};
    }

    const Tracer &tracer_;
    std::vector<uint32_t> order_;  //!< indices, grouped by track.
    std::vector<uint32_t> cursor_; //!< per track: next slot in order_.
    std::vector<uint32_t> end_;    //!< per track: end of its run.
    std::vector<Head> heap_;       //!< one head per unfinished run.
};

Tracer::TimeOrder::TimeOrder(const Tracer &tracer) : tracer_(tracer)
{
    // Number the tracks and count their events, noting the tracks
    // recorded out of time order.
    const uint32_t n = uint32_t(tracer.eventCount());
    std::unordered_map<uint64_t, uint32_t> ids;
    auto key = [](const Event &ev) {
        return uint64_t(uint32_t(ev.pid)) << 32 | uint32_t(ev.tid);
    };
    std::vector<double> last_ts;
    std::vector<bool> sorted;
    for (uint32_t i = 0; i < n; ++i) {
        const Event &ev = tracer.eventAt(i);
        auto [it, added] = ids.try_emplace(key(ev), uint32_t(end_.size()));
        const uint32_t track = it->second;
        if (added) {
            end_.push_back(0);
            last_ts.push_back(ev.ts);
            sorted.push_back(true);
        }
        ++end_[track];
        if (ev.ts < last_ts[track])
            sorted[track] = false;
        last_ts[track] = ev.ts;
    }
    cursor_.resize(end_.size());
    uint32_t offset = 0;
    for (size_t t = 0; t < end_.size(); ++t) {
        cursor_[t] = offset;
        offset += end_[t];
        end_[t] = cursor_[t];
    }
    order_.resize(n);
    for (uint32_t i = 0; i < n; ++i)
        order_[end_[ids.at(key(tracer.eventAt(i)))]++] = i;

    heap_.reserve(end_.size());
    for (uint32_t t = 0; t < end_.size(); ++t) {
        if (!sorted[t])
            std::stable_sort(order_.begin() + cursor_[t],
                             order_.begin() + end_[t],
                             [&](uint32_t a, uint32_t b) {
                                 return tracer.eventAt(a).ts <
                                        tracer.eventAt(b).ts;
                             });
        heap_.push_back(headOf(t));
    }
    std::make_heap(heap_.begin(), heap_.end(), after);
}

bool
Tracer::TimeOrder::next(uint32_t &index)
{
    if (heap_.empty())
        return false;
    std::pop_heap(heap_.begin(), heap_.end(), after);
    Head &top = heap_.back();
    index = top.index;
    if (++cursor_[top.track] < end_[top.track]) {
        top = headOf(top.track);
        std::push_heap(heap_.begin(), heap_.end(), after);
    } else {
        heap_.pop_back();
    }
    return true;
}

void
Tracer::visitEvents(
    const std::function<void(const ResolvedEvent &)> &fn) const
{
    ResolvedEvent out;
    NameBuffer buf;
    TimeOrder order(*this);
    for (uint32_t i; order.next(i);) {
        const Event &ev = eventAt(i);
        out.ts = ev.ts;
        out.instant = ev.dur == kInstant;
        out.open = ev.dur == kOpen;
        out.dur = (out.instant || out.open) ? 0.0 : ev.dur;
        out.pid = ev.pid;
        out.tid = ev.tid;
        out.cat = ev.cat;
        out.name = eventName(ev, buf);
        fn(out);
    }
}

void
Tracer::writeChromeTrace(const std::string &path)
{
    closeOccupancy();
    for (uint32_t i = 0; i < links_.size(); ++i)
        if (!links_[i].label.empty())
            threadName(0, kLinkTidBase + int32_t(i), links_[i].label);

    // One record's bytes besides its name and category.
    constexpr size_t kRecordChars =
        128 + 2 * kMaxIntChars + 2 * kMaxFixedChars;
    OutputFile out(path, "trace file");
    out.put("{\"displayTimeUnit\":\"ns\",\n\"traceEvents\":[\n");
    std::string_view sep;
    auto metadata = [&](std::string_view kind, int32_t pid, int32_t tid,
                        const std::string &name) {
        char *p =
            out.reserve(kRecordChars + kMaxEscapedPerByte * name.size());
        p = append(p, sep);
        sep = ",\n";
        p = append(p, "{\"ph\":\"M\",\"name\":\"");
        p = append(p, kind);
        p = append(p, "\",\"pid\":");
        p = appendInt(p, pid);
        p = append(p, ",\"tid\":");
        p = appendInt(p, tid);
        p = append(p, ",\"args\":{\"name\":\"");
        p = appendEscaped(p, name);
        out.commit(append(p, "\"}}"));
    };
    for (const auto &pn : processNames_)
        metadata("process_name", pn.first, 0, pn.second);
    for (const auto &tn : threadNames_)
        metadata("thread_name", tn.first.first, tn.first.second,
                 tn.second);

    // Time order (Chrome/Perfetto accept any, but sorted output gives
    // monotonic per-track timestamps, checked by
    // ChromeTraceExport.StructureAndOrdering, and faster ingestion).
    // Timestamps are in microseconds; sub-ns precision survives via
    // the fractional digits.
    uint64_t unclosed = 0;
    NameBuffer buf;
    TimeOrder order(*this);
    for (uint32_t i; order.next(i);) {
        const Event &ev = eventAt(i);
        if (ev.dur == kOpen) {
            ++unclosed;
            continue;
        }
        const std::string_view name = eventName(ev, buf);
        const std::string_view cat = ev.cat;
        char *p = out.reserve(kRecordChars + cat.size() +
                              kMaxEscapedPerByte * name.size());
        p = append(p, sep);
        sep = ",\n";
        p = append(p, ev.dur == kInstant ? "{\"ph\":\"i\",\"name\":\""
                                         : "{\"ph\":\"X\",\"name\":\"");
        p = appendEscaped(p, name);
        p = append(p, "\",\"cat\":\"");
        p = append(p, cat);
        p = append(p, "\",\"pid\":");
        p = appendInt(p, ev.pid);
        p = append(p, ",\"tid\":");
        p = appendInt(p, ev.tid);
        p = append(p, ",\"ts\":");
        p = appendFixed(p, ev.ts / 1000.0, 6);
        if (ev.dur == kInstant) {
            p = append(p, ",\"s\":\"t\"}");
        } else {
            p = append(p, ",\"dur\":");
            p = appendFixed(p, ev.dur / 1000.0, 6);
            *p++ = '}';
        }
        out.commit(p);
    }
    out.put("\n]}\n");
    out.close();
    if (unclosed)
        counters_.add("trace_unclosed_spans", double(unclosed));
}

json::Value
Tracer::utilizationJson() const
{
    json::Object doc;
    doc["bucket_ns"] = json::Value(cfg_.utilizationBucketNs);
    json::Array links;
    for (const LinkState &ls : links_) {
        if (ls.busyNs.empty())
            continue;
        json::Object link;
        link["link"] = json::Value(ls.label);
        json::Array busy;
        busy.reserve(ls.busyNs.size());
        for (double ns : ls.busyNs)
            busy.push_back(json::Value(ns / cfg_.utilizationBucketNs));
        link["busy_fraction"] = json::Value(std::move(busy));
        links.push_back(json::Value(std::move(link)));
    }
    doc["links"] = json::Value(std::move(links));
    return json::Value(std::move(doc));
}

void
Tracer::writeUtilization(const std::string &path)
{
    OutputFile out(path, "utilization file");
    if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
        out.put(utilizationJson().dump(2));
        out.put("\n");
        out.close();
        return;
    }
    out.put("link,bucket_start_ns,busy_fraction\n");
    for (const LinkState &ls : links_) {
        const std::string label = jsonEscape(ls.label);
        for (size_t b = 0; b < ls.busyNs.size(); ++b) {
            if (ls.busyNs[b] <= 0.0)
                continue;
            char *p = out.reserve(label.size() + 3 + 2 * kMaxFixedChars);
            p = append(p, label);
            *p++ = ',';
            p = appendFixed(p, double(b) * cfg_.utilizationBucketNs, 3);
            *p++ = ',';
            p = appendFixed(p, ls.busyNs[b] / cfg_.utilizationBucketNs, 6);
            *p++ = '\n';
            out.commit(p);
        }
    }
    out.close();
}

double
Tracer::writeOutputs()
{
    auto t0 = std::chrono::steady_clock::now();
    if (!cfg_.file.empty()) {
        writeChromeTrace(cfg_.file);
        informT("trace", "wrote %s (%zu events)", cfg_.file.c_str(),
                eventCount());
    }
    if (!cfg_.utilizationFile.empty()) {
        writeUtilization(cfg_.utilizationFile);
        informT("trace", "wrote %s", cfg_.utilizationFile.c_str());
    }
    auto t1 = std::chrono::steady_clock::now();
    double s = std::chrono::duration<double>(t1 - t0).count();
    if (!cfg_.file.empty() || !cfg_.utilizationFile.empty())
        counters_.addWall("wall_trace_write_seconds", s);
    return s;
}

} // namespace trace
} // namespace astra
