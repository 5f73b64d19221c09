/**
 * @file
 * Simulation tracing & introspection layer (docs/trace.md).
 *
 * A Tracer records *simulated-time* spans and instant events from
 * every layer of the stack — workload node execution, collective
 * instances and chunk phases, per-message/flow lifetimes in the
 * network backends, fault-injector events, cluster job lifecycle —
 * and exports them as Chrome trace-event JSON (loadable in Perfetto /
 * chrome://tracing) plus an optional sampled per-link utilization
 * time-series.
 *
 * Contract with the rest of the simulator:
 *  - Zero overhead when disabled. Instrumented code holds a
 *    `trace::Tracer *` that is null by default; every hook is a
 *    single null-check. `detail: off` (the default) is bit-identical
 *    to a build without tracing.
 *  - Purely observational. The tracer never schedules events, never
 *    consumes randomness, and never feeds back into simulation
 *    state, so simulated results are bit-identical with tracing on
 *    or off at any detail level (tests/trace/ enforces this).
 *  - Recording is cheap, and exporting runs at simulation speed. The
 *    hot-path record call appends one POD struct (name formatting is
 *    deferred to export time), keeping the recording overhead under
 *    the 25% budget that bench_trace_overhead gates. The export
 *    merges the per-track runs into time order (ties in recording
 *    order) and formats straight into a buffered writer, so writing
 *    the JSON file costs no more than the simulation that recorded
 *    it; it is reported separately (docs/trace.md, "overhead
 *    contract").
 */
#ifndef ASTRA_TRACE_TRACER_H_
#define ASTRA_TRACE_TRACER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.h"
#include "common/json.h"
#include "common/string_table.h"
#include "common/units.h"

namespace astra {

struct QueueProfile;

namespace trace {

/** How much the tracer records (see docs/trace.md for the taxonomy). */
enum class Detail {
    Off,   //!< record nothing; all hooks are a null/flag check.
    Spans, //!< coarse: node spans, collective instances, job
           //!< lifecycle, fault instants.
    Full,  //!< + chunk phases, per-message/flow lifetimes, flow
           //!< rate-change segments, link port occupancy.
};


/** `trace: {...}` block of Simulator/Cluster configs (sweepable). */
struct TraceConfig
{
    std::string file;          //!< Chrome trace JSON path ("" = none).
    Detail detail = Detail::Off;
    /** Utilization time-series bucket width; 0 disables sampling,
     *  unless a utilization file asks for the series: the Tracer then
     *  samples 1000 ns buckets and doubles the width whenever a series
     *  would pass 65,536 buckets. Analysis reads exact per-link totals
     *  and never needs the series. */
    double utilizationBucketNs = 0.0;
    /** Utilization series output (".csv" or ".json"; "" = none). */
    std::string utilizationFile;
    /**
     * Run the trace analytics pass (src/trace/analysis/,
     * docs/trace.md "Analysis") after the simulation: critical-path
     * extraction, bottleneck attribution, and the stretch table,
     * flowing into the Report's critical_path_ns /
     * trace_exposed_comm_per_dim_ns / bottleneck_link fields.
     * Requires detail != off (the analyzers consume recorded spans).
     */
    bool analysis = false;
    /** Analysis JSON report output path ("" = in-report only);
     *  non-empty implies `analysis`. */
    std::string analysisFile;

    bool enabled() const { return detail != Detail::Off; }
};

/**
 * Parse a `trace` config object; unknown keys are fatal() with a
 * path-qualified message (same discipline as fault/cluster configs).
 * Without a `detail` key, an output file (trace or utilization)
 * implies `spans`, and otherwise analysis implies `full` (the
 * analyzers want message and chunk-phase spans); analysis with an
 * explicit `"detail": "off"` is an error. This is the only reader of
 * the block: the flags write into it first.
 */
TraceConfig traceConfigFromJson(const json::Value &doc,
                                const std::string &path);

/** The shared tracing CLI flags (docs/cli.md), each keyed to the
 *  `trace` key it sets. `--<file_flag>` names the Chrome trace:
 *  "trace-out" where `--trace` already names an input ET file
 *  (astra_sim, trace_runner), "trace" in cluster_runner. */
FlagGroup cliFlags(const char *file_flag);

/** traceConfigFromJson of `base` with the flags written over it. */
TraceConfig traceConfigFromCli(const CommandLine &cl,
                               const char *file_flag,
                               json::Value base = json::Value());

/**
 * Self-profiling counters registry: named scalar counters and
 * log2-bucketed histograms describing the simulator itself (event
 * queue depth, bucket occupancy, solver work), plus wall-clock
 * attribution per subsystem. Scalars and histograms are pure
 * functions of the configuration (deterministic); wall-seconds are
 * host measurements and are kept apart so they never leak into
 * deterministic serialization (see reportToJson).
 */
struct Counters
{
    std::map<std::string, double> values;
    std::map<std::string, std::vector<uint64_t>> histograms;
    std::map<std::string, double> wallSeconds;

    void add(const std::string &key, double v) { values[key] += v; }
    void addWall(const std::string &key, double s) { wallSeconds[key] += s; }
    bool empty() const
    {
        return values.empty() && histograms.empty() && wallSeconds.empty();
    }
};

/** Fold an EventQueue self-profile (event/event_queue.h) into the
 *  registry: depth / bucket-size histograms (trailing-zero-trimmed)
 *  and sample counts as deterministic entries, sampled callback wall
 *  time as `wall_callbacks_seconds`. */
void addQueueProfile(const QueueProfile &prof, Counters &counters);

/** See file comment. */
class Tracer
{
  public:
    /** Span/instant identifier returned by beginSpan(). */
    using SpanId = uint32_t;
    /** Sentinel for "no open span" (never returned by beginSpan()). */
    static constexpr SpanId kNoSpan = 0xffffffffu;

    /** tid namespace layout (docs/trace.md): ranks occupy [0, nranks),
     *  fabric link tracks start at kLinkTidBase, per-source flow
     *  tracks at kFlowTidBase, collective-instance tracks (one per
     *  SlotPool slot, so concurrent instances never share a track) at
     *  kCollTidBase, and job-lifecycle instants share kLifecycleTid.
     *  pid 0 is the fabric/simulator process; cluster jobs are
     *  pid = job id + 1. */
    static constexpr int32_t kLinkTidBase = 1 << 20;
    static constexpr int32_t kFlowTidBase = 1 << 21;
    static constexpr int32_t kCollTidBase = 1 << 22;
    static constexpr int32_t kLifecycleTid = kLinkTidBase - 1;

    explicit Tracer(TraceConfig cfg);
    /** Retires this tracer's event blocks into a per-thread recycle
     *  pool so the next tracer skips their page faults (tracer.cc). */
    ~Tracer();

    const TraceConfig &config() const { return cfg_; }
    /** True at detail >= spans / == full; hooks check these (or the
     *  null tracer pointer) before touching anything else. */
    bool spans() const { return cfg_.detail != Detail::Off; }
    bool full() const { return cfg_.detail == Detail::Full; }
    bool utilization() const { return cfg_.utilizationBucketNs > 0.0; }
    /** True if the series or analysis reads linkBusy(). The flow
     *  backend's calls cost work of their own, so it checks first. */
    bool readsLinkBusy() const { return utilization() || cfg_.analysis; }

    // ---- timeline recording -------------------------------------
    // Fast path: `cat` and `fmt` must be string literals (or anything
    // outliving the tracer); the name is snprintf(fmt, a0, a1, a2)
    // with long long args, formatted only at export time so the
    // recording cost is one POD append. Defined inline: these run
    // once per message/rate-change at detail full, and an out-of-line
    // call (ten args spilled) costs several times the append itself
    // (bench_trace_overhead).
    void span(int32_t pid, int32_t tid, const char *cat, const char *fmt,
              TimeNs ts, TimeNs dur, long long a0 = 0, long long a1 = 0,
              long long a2 = 0)
    {
        if (cur_ == curEnd_)
            newBlock();
        *cur_++ = Event{ts, dur < 0 ? 0 : double(dur), pid, tid, cat,
                        fmt, a0, a1, a2};
    }
    void instant(int32_t pid, int32_t tid, const char *cat,
                 const char *fmt, TimeNs ts, long long a0 = 0,
                 long long a1 = 0, long long a2 = 0)
    {
        if (cur_ == curEnd_)
            newBlock();
        *cur_++ = Event{ts, kInstant, pid, tid, cat, fmt, a0, a1, a2};
    }
    /** Dynamic names (node names, job ids) are interned: each
     *  distinct name is stored once, and an event holds its id. A
     *  caller recording the same names many times interns them up
     *  front and records by id with spanName(). */
    uint32_t
    internName(std::string_view name)
    {
        return names_.intern(name);
    }
    void spanName(int32_t pid, int32_t tid, const char *cat, uint32_t name,
                  TimeNs ts, TimeNs dur)
    {
        if (cur_ == curEnd_)
            newBlock();
        *cur_++ = Event{ts, dur < 0 ? 0 : double(dur), pid, tid, cat,
                        nullptr, (long long)name, 0, 0};
    }
    /** internName() + record, for low-volume call sites. */
    void spanStr(int32_t pid, int32_t tid, const char *cat,
                 std::string_view name, TimeNs ts, TimeNs dur);
    void instantStr(int32_t pid, int32_t tid, const char *cat,
                    std::string_view name, TimeNs ts);

    /** Open span for state that closes later (collective instances,
     *  job lifetimes). Spans never closed are dropped at export and
     *  counted in `trace_unclosed_spans`. */
    SpanId beginSpan(int32_t pid, int32_t tid, const char *cat,
                     std::string_view name, TimeNs ts);
    void endSpan(SpanId id, TimeNs ts);

    /** Perfetto display metadata ("M" events). */
    void processName(int32_t pid, std::string name);
    void threadName(int32_t pid, int32_t tid, std::string name);

    // ---- per-link utilization / occupancy -----------------------
    /** Register fabric link track `index` (tid = kLinkTidBase+index)
     *  with a display label; idempotent. */
    void registerLink(uint32_t index, std::string label);
    /**
     * Account `fraction` of [t0, t1) as busy on link `index`: adds it
     * to the link's busy total (analysis only), to the sampled
     * utilization series (when utilization_bucket_ns > 0) and, at
     * detail full with fraction == 1, coalesces contiguous busy
     * intervals into occupancy spans on the link's track. Fractional
     * rates (flow backend) only feed the total and the series —
     * per-flow rate segments already tell that story on the timeline.
     */
    void linkBusy(uint32_t index, TimeNs t0, TimeNs t1,
                  double fraction = 1.0);

    Counters &counters() { return counters_; }
    const Counters &counters() const { return counters_; }

    /** Number of timeline events recorded so far (metadata excluded). */
    size_t eventCount() const
    {
        return blocks_.empty()
                   ? 0
                   : (blocks_.size() - 1) * kBlockSize +
                         size_t(cur_ - blocks_.back().get());
    }

    /**
     * Heap bytes held by the event blocks, link tracks and name table
     * (telemetry footprint protocol, docs/observability.md). Blocks
     * are counted at full size — they are allocated whole — so this
     * is a deterministic step function of the event count; the name
     * table grows only per distinct name.
     */
    size_t bytesInUse() const;

    // ---- in-memory inspection (src/trace/analysis/) -------------
    /** One recorded timeline event with its deferred name resolved.
     *  `open` marks never-closed beginSpan() spans (dropped at
     *  export); `instant` marks zero-duration instant markers. */
    struct ResolvedEvent
    {
        double ts = 0.0;   //!< ns (simulated).
        double dur = 0.0;  //!< ns (0 for instants and open spans).
        int32_t pid = 0;
        int32_t tid = 0;
        const char *cat = "";
        std::string_view name; //!< valid during the callback only.
        bool instant = false;
        bool open = false;
    };
    /** Visit every recorded event with its name resolved, in the
     *  export's order: by timestamp, ties in recording order — the
     *  analysis subsystem's no-reparse ingest path. Call
     *  closeOccupancy() first if pending link occupancy spans should
     *  be included. */
    void visitEvents(
        const std::function<void(const ResolvedEvent &)> &fn) const;
    /** Flush still-open coalesced link occupancy intervals into spans
     *  (idempotent; writeChromeTrace does this implicitly). */
    void closeOccupancy();

    /** Registered link tracks (index = fabric link id). Labels are ""
     *  for ids never registered. */
    size_t linkCount() const { return links_.size(); }
    const std::string &linkLabel(size_t index) const
    {
        return links_[index].label;
    }
    /** Busy ns of link `index` summed over every linkBusy() call; 0
     *  unless analysis is on. */
    double linkBusyTotalNs(size_t index) const
    {
        return index < busyTotalNs_.size() ? busyTotalNs_[index] : 0.0;
    }

    // ---- export -------------------------------------------------
    /** Write Chrome trace-event JSON ({"traceEvents": [...]}) sorted
     *  by timestamp, ties in recording order; fatal() if the file
     *  cannot be opened or any write fails. */
    void writeChromeTrace(const std::string &path);
    /** Write the utilization series; ".json" suffix selects JSON,
     *  anything else CSV (link,bucket_start_ns,busy_fraction); fatal()
     *  on any write error. */
    void writeUtilization(const std::string &path);
    /** Honor config().file / config().utilizationFile (no-ops when
     *  empty). Returns wall seconds spent writing. */
    double writeOutputs();

    /** Utilization series as JSON (tests; same data as the file). */
    json::Value utilizationJson() const;

  private:
    struct Event
    {
        double ts;   //!< ns (simulated).
        double dur;  //!< ns; kInstant / kOpen markers below.
        int32_t pid;
        int32_t tid;
        const char *cat;  //!< static string.
        /** Static printf format, or nullptr => the name is
         *  names_[a0] (the Str/beginSpan paths never use the args).
         *  Folding the index into a0 keeps the struct at 64 bytes on
         *  LP64 — one cache line per append — which is what holds
         *  full-detail recording inside the overhead budget
         *  (bench_trace_overhead: a 72-byte event straddles lines and
         *  records ~4x slower). */
        const char *fmt;
        long long a0, a1, a2;
    };
    static constexpr double kInstant = -1.0;
    static constexpr double kOpen = -2.0;

    struct LinkState
    {
        std::string label;
        std::vector<double> busyNs;  //!< per utilization bucket.
        double openT0 = 0.0, openT1 = -1.0;  //!< coalesced occupancy.
    };

    /** Open a fresh storage block (out of line; see blocks_). */
    void newBlock();
    /** Per-thread pool of retired blocks (pages resident) that
     *  newBlock() prefers over fresh allocation; see ~Tracer().
     *  Returns null once the calling thread's pool has been torn
     *  down, so tracers outliving it (static storage) degrade to
     *  plain allocation instead of touching a dead vector. */
    struct BlockPool;
    static BlockPool *blockPool();
    Event &eventAt(size_t i)
    {
        return blocks_[i >> kBlockShift][i & (kBlockSize - 1)];
    }
    const Event &eventAt(size_t i) const
    {
        return blocks_[i >> kBlockShift][i & (kBlockSize - 1)];
    }
    void accumulateBuckets(LinkState &ls, TimeNs t0, TimeNs t1,
                           double fraction);
    /** Double the bucket width: adjacent bucket pairs of every link's
     *  series sum into one. */
    void coarsenBuckets();
    /** Formatted fmt names are cut at 127 bytes, as snprintf into
     *  this buffer cuts them. */
    using NameBuffer = char[128];
    /** The event's name: names_[a0] itself, or its fmt formatted
     *  into `buf`. */
    std::string_view eventName(const Event &ev, NameBuffer &buf) const;
    /** Merges the per-track runs into export order (tracer.cc). */
    class TimeOrder;

    /** Event storage is a list of fixed-size blocks appended through
     *  a bump pointer (cur_/curEnd_), NOT one growing vector: a
     *  doubling vector would memcpy the whole trace ~once over and
     *  refault the copied pages, which alone busts the recording
     *  budget on big traces (bench_trace_overhead). Blocks are
     *  allocated uninitialized and never move, so recording is
     *  compare + 64-byte store + bump. */
    static constexpr size_t kBlockShift = 16; //!< 64Ki events, 4 MB.
    static constexpr size_t kBlockSize = size_t(1) << kBlockShift;

    /** Longest series a width the Tracer chose may produce. */
    static constexpr size_t kMaxImpliedBuckets = size_t(1) << 16;

    TraceConfig cfg_;
    /** The bucket width was implied by a utilization file, so the
     *  Tracer may widen it (see TraceConfig::utilizationBucketNs). */
    bool impliedBucket_ = false;
    std::vector<std::unique_ptr<Event[]>> blocks_;
    Event *cur_ = nullptr;    //!< next append slot in blocks_.back().
    Event *curEnd_ = nullptr; //!< end of blocks_.back().
    StringTable names_; //!< dynamic names; events hold their ids.
    std::vector<LinkState> links_;
    /** Per link, only for analysis (in LinkState, it would grow every
     *  traced run's footprint). */
    std::vector<double> busyTotalNs_;
    std::map<int32_t, std::string> processNames_;
    std::map<std::pair<int32_t, int32_t>, std::string> threadNames_;
    Counters counters_;
};

} // namespace trace
} // namespace astra

#endif // ASTRA_TRACE_TRACER_H_
