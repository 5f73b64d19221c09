/**
 * @file
 * Discrete-event simulation core.
 *
 * A single EventQueue instance drives a simulation: components
 * schedule callbacks at absolute or relative simulated times and the
 * queue executes them in (time, insertion-order) order. This is the
 * substrate below the network backends, the memory models, and the
 * graph-based execution engine, mirroring the event queue in the
 * original ASTRA-sim system layer (Fig. 1(c)).
 *
 * Implementation (see docs/eventcore.md for the design note): a
 * three-level hashed timing wheel instead of a binary heap. Time is
 * cut into integer ticks (tick = floor(time / bucket width), 64 ns by
 * default), ticks into 1024-tick blocks, blocks into 1024-block
 * superblocks (2^20 ticks, ~67 ms at 64 ns).
 *
 *  - A "now FIFO" holds events scheduled at exactly the current time.
 *    Zero-delay scheduling (deferred completions, loopback sends, the
 *    simRecv eager path) is the hottest pattern in the simulator and
 *    costs O(1) push/pop with no ordering work at all, because FIFO
 *    order *is* (time, insertion-order) order for equal timestamps.
 *  - Level 0 is a 2048-slot ring of one-tick buckets covering the
 *    current block and the next one, so no two live ticks share a
 *    slot. Level 1 has one bucket per block for the rest of the
 *    superblock that holds the next block; level 2 one bucket per
 *    superblock for the following 1023 superblocks (~68.7 s ahead at
 *    64 ns). Only events beyond that go to a min-heap.
 *  - A new event goes to the lowest level whose range covers it.
 *    When the clock enters a block, that block's level-1 bucket
 *    moves down to level 0; when it enters a superblock, that
 *    superblock's level-2 bucket moves down, and heap entries that
 *    now fall within level 2's range move into it. A move between
 *    wheel levels is O(1) per entry; levels 1 and 2 never compare
 *    entries.
 *  - Every bucket is an unrolled list of fixed-size chunks taken from
 *    one shared slab with a free list, so the queue's memory follows
 *    the number of pending events rather than each bucket's history.
 *  - The bucket whose tick the clock reaches is gathered into one
 *    sorted vector (one sort per non-empty tick; a bucket already in
 *    order skips it) that events fire from.
 *
 * Determinism guarantee: events fire in strictly nondecreasing time,
 * and events with equal timestamps fire in insertion order, exactly as
 * the old binary-heap implementation documented. The wheel cannot
 * reorder events: tick order is consistent with time order, every
 * entry sits in the bucket of its own tick, block or superblock, all
 * entries of a lower level precede all entries of a higher one, and
 * the active tick is drained fully ordered by (time, insertion)
 * before any later tick. The bucket width is a pure performance knob.
 */
#ifndef ASTRA_EVENT_EVENT_QUEUE_H_
#define ASTRA_EVENT_EVENT_QUEUE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "common/units.h"
#include "event/inline_event.h"

namespace astra {

namespace telemetry { class Monitor; }

/** Callback executed when an event fires. */
using EventCallback = InlineEvent;

/**
 * Optional self-profiling sink for an EventQueue (introspection layer,
 * docs/trace.md). When attached via setProfile(), the queue samples
 * its own shape while running:
 *
 *  - `depthHist[b]` counts samples (taken every kDepthSampleEvery
 *    executed events) whose pending-event count had bit-width b —
 *    i.e. a log2 histogram of queue depth over the run.
 *  - `bucketHist[b]` is a log2 histogram of active-bucket sizes at
 *    activation (one entry per bucket activation).
 *  - The queue-regime counters: `timedByLevel[l]` counts timed
 *    schedules (not the now-FIFO) by where they landed — wheel level
 *    0, 1, 2, or the heap (l = 3); `movedDown` counts entries moved
 *    to a lower level as the clock advanced; `bucketSorts` counts the
 *    activations whose bucket was out of order and had to be sorted.
 *  - When `timeCallbacks` is set, every kCallbackSampleEvery-th
 *    callback is wall-clocked and the total is extrapolated into
 *    `callbackWallSeconds` (sampled attribution: dispatch overhead
 *    stays bounded whatever the event rate).
 *
 * The histograms and counters are pure functions of the simulated
 * event sequence (deterministic); the wall figures are host
 * measurements. Profiling never alters scheduling order, so results
 * are bit-identical with or without a profile attached.
 */
struct QueueProfile
{
    static constexpr uint64_t kDepthSampleEvery = 1024;
    static constexpr uint64_t kCallbackSampleEvery = 64;

    std::array<uint64_t, 32> depthHist{};
    std::array<uint64_t, 32> bucketHist{};
    uint64_t depthSamples = 0;
    uint64_t bucketActivations = 0;
    std::array<uint64_t, 4> timedByLevel{};
    uint64_t movedDown = 0;
    uint64_t bucketSorts = 0;
    bool timeCallbacks = false;
    double callbackWallSeconds = 0.0;
    uint64_t callbackSamples = 0;
};

/**
 * Hierarchical timing-wheel discrete-event scheduler.
 *
 * Events at equal timestamps fire in insertion order (stable), which
 * keeps simulations deterministic.
 */
class EventQueue
{
  public:
    /** Tick granularity. One tick should be comfortably below the
     *  typical event spacing created by link latencies (hundreds of
     *  ns), so that dependent events land in later ticks and the
     *  active bucket rarely takes ordered inserts. */
    static constexpr TimeNs kDefaultBucketWidthNs = 64.0;

    EventQueue() : EventQueue(kDefaultBucketWidthNs) {}

    /** A queue with an explicit tick width. The width is a pure
     *  performance knob and can never reorder events. */
    explicit EventQueue(TimeNs bucket_width);

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Destroys every pending callback (the slab is raw storage). */
    ~EventQueue();

    /** Current simulated time in nanoseconds. */
    TimeNs now() const { return now_; }

    /** Schedule `cb` to fire `delay` ns after now; delay must be >= 0. */
    void schedule(TimeNs delay, EventCallback &&cb);

    /** Schedule `cb` at absolute time `when` (>= now - kTimeEpsNs;
     *  earlier times within the tolerance clamp to now). */
    void scheduleAt(TimeNs when, EventCallback &&cb);

    /** Number of pending events. */
    size_t pending() const { return pending_; }

    /** True if no events remain. */
    bool empty() const { return pending_ == 0; }

    /** Execute events until the queue drains; returns final time. */
    TimeNs run();

    /**
     * Execute events with time <= `until`; events beyond stay queued.
     * Returns the time of the last executed event (or `until`).
     */
    TimeNs runUntil(TimeNs until);

    /** Execute exactly one event if present; returns false when empty. */
    bool step();

    /** Total number of events executed so far (for speed reporting). */
    uint64_t executedEvents() const { return executed_; }

    /**
     * Drop all pending events and reset the clock. The slab and the
     * vectors keep their capacity, so a reused queue schedules without
     * reallocating.
     */
    void reset();

    /** Pre-size the slab for ~`events` concurrently pending events. */
    void reserve(size_t events);

    /** The tick granularity. */
    TimeNs bucketWidth() const { return bucketWidth_; }

    /** Attach (or detach, with nullptr) a self-profiling sink; the
     *  caller keeps ownership and the profile must outlive the runs
     *  it observes. Purely observational — see QueueProfile. */
    void setProfile(QueueProfile *profile) { prof_ = profile; }

    /**
     * Attach (or detach, with nullptr) a telemetry heartbeat monitor
     * (docs/observability.md). The dispatch loop decrements a
     * countdown per executed event and calls Monitor::poll() when it
     * hits zero, re-arming with the returned value — so the detached
     * cost is one null check and the attached cost one decrement.
     * Purely observational: polling never schedules events or alters
     * dispatch order.
     */
    void setMonitor(telemetry::Monitor *monitor);

    /**
     * Heap bytes held by the queue's containers (telemetry footprint
     * protocol, docs/observability.md): capacity-based, so it is a
     * deterministic function of the event sequence, not of malloc.
     */
    size_t bytesInUse() const;

  private:
    /** Ticks per block and blocks per superblock (log2). */
    static constexpr int kLevelBits = 10;
    static constexpr int kSuperBits = 2 * kLevelBits;

    /** Slots of the level-0 ring: the current block and the next. */
    static constexpr size_t kLevel0Slots = size_t{2} << kLevelBits;

    /** Slots of levels 1 (blocks) and 2 (superblocks). */
    static constexpr size_t kLevelSlots = size_t{1} << kLevelBits;
    static constexpr size_t kSlotMask = kLevelSlots - 1;

    /** Entries per slab chunk; a bucket is a list of chunks. */
    static constexpr size_t kChunkEntries = 32;
    /** Chunks per slab allocation. */
    static constexpr size_t kSlabBlockChunks = 16;

    struct Entry
    {
        TimeNs when;
        uint64_t seq;
        InlineEvent cb;
    };

    /**
     * A slab chunk: raw storage for kChunkEntries entries. append()
     * placement-constructs an entry in the first free slot and
     * takeBucket() destroys it once the entry is taken, so a slot
     * outside a bucket's fill holds no object and a cold slot is
     * written, never read, when it is filled. An entry is one 64 B
     * cache line and chunks are line-aligned, so filling a slot
     * touches exactly one line.
     */
    struct alignas(64) Chunk
    {
        unsigned char storage[kChunkEntries * sizeof(Entry)];
        Chunk *next = nullptr;

        void *slot(size_t i) { return storage + i * sizeof(Entry); }
        Entry &
        at(size_t i)
        {
            return *std::launder(reinterpret_cast<Entry *>(slot(i)));
        }
    };

    static_assert(sizeof(Entry) == 64, "an entry is one cache line");

    /** An unrolled list of chunks; entries in append order. */
    struct Bucket
    {
        Chunk *head = nullptr;
        Chunk *tail = nullptr;
        size_t tailFill = 0;
    };

    /** One wheel level: its buckets, an occupancy bitmap over them,
     *  and the number of entries it holds. */
    template <size_t N> struct Level
    {
        std::array<Bucket, N> buckets;
        std::array<uint64_t, N / 64> occupied{};
        size_t count = 0;
    };

    int64_t
    tickOf(TimeNs when) const
    {
        return static_cast<int64_t>(when * invWidth_);
    }

    /** Block of the clock's horizon (the second level-0 block). */
    int64_t horizonBlock() const { return (baseTick_ >> kLevelBits) + 1; }

    /** Put an entry with tick >= baseTick_ into the level that covers
     *  it; returns the level (3 = heap). */
    int place(TimeNs when, uint64_t seq, InlineEvent &&cb, int64_t tick);

    template <size_t N>
    void append(Level<N> &level, size_t slot, TimeNs when, uint64_t seq,
                InlineEvent &&cb);

    /** Move every entry of `level`'s bucket `slot` to the level that
     *  covers it now (always a lower one). */
    template <size_t N> void moveDown(Level<N> &level, size_t slot);

    /** Detach `level`'s bucket `slot` and hand each of its entries,
     *  in append order, to `sink`; each entry is destroyed after the
     *  sink returns (dropping a callback the sink did not move out),
     *  and the chunks go back to the slab. */
    template <size_t N, typename Sink>
    void takeBucket(Level<N> &level, size_t slot, Sink &&sink);

    /** takeBucket() on every occupied bucket of `level`. */
    template <size_t N, typename Sink>
    void takeLevel(Level<N> &level, Sink &&sink);

    /** Destroy every entry of the three wheel levels. */
    void dropLevels();

    /** Move heap entries that fall within level 2's range. */
    void drainHeap();

    /** Advance baseTick_ to `tick` (> baseTick_ or provisional),
     *  moving down whatever the new position brings into range. */
    void moveBase(int64_t tick);

    /** The earliest pending tick outside the active bucket; moves
     *  the base there. Requires pending timed events. */
    int64_t nextTick();

    /** Make `tick` (== baseTick_) the active tick: gather its level-0
     *  bucket into active_ and sort it. */
    void activate(int64_t tick);

    /** Re-base the wheel backwards to `tick` (< baseTick_). Only
     *  possible after runUntil() stopped in a gap with the wheel
     *  already advanced to a later event; see the .cc comment. */
    void rebase(int64_t tick);

    /** Establish the next event source: returns false when empty,
     *  otherwise the active bucket or the now-FIFO has an event. */
    bool ensureNext();

    /** Time of the next event; call only after ensureNext() == true. */
    TimeNs nextTime() const;

    /** Pop the next callback in (time, seq) order, advancing now_. */
    InlineEvent popNext();

    /** step() tail with a profile attached (out of line to keep the
     *  unprofiled dispatch loop tight). */
    void profiledDispatch(InlineEvent cb);

    Chunk *takeChunk();
    void addSlabBlock();

    static bool entryBefore(const Entry &a, const Entry &b);
    static bool entryAfter(const Entry &a, const Entry &b);

    // Events at exactly now_ in insertion order (head index pops).
    std::vector<InlineEvent> nowFifo_;
    size_t nowHead_ = 0;

    // The active tick's events, sorted ascending by (when, seq), with
    // activeHead_ as the pop cursor. While activeOpen_, a schedule
    // into baseTick_ is inserted here in order; otherwise it goes to
    // the level-0 bucket of baseTick_ and re-activates it later.
    std::vector<Entry> active_;
    size_t activeHead_ = 0;
    bool activeOpen_ = false;
    int64_t baseTick_ = 0;

    std::unique_ptr<Level<kLevel0Slots>> level0_;
    std::unique_ptr<Level<kLevelSlots>> level1_;
    std::unique_ptr<Level<kLevelSlots>> level2_;
    // Beyond level 2: min-heap by (when, seq).
    std::vector<Entry> heap_;

    // Chunk slab: blocks of kSlabBlockChunks chunks that never move,
    // and a free list through Chunk::next. A block is plain bytes with
    // the chunks at its first line boundary, not an over-aligned new,
    // whose freed holes glibc does not reuse (docs/eventcore.md).
    std::vector<std::unique_ptr<unsigned char[]>> slabBlocks_;
    Chunk *freeChunks_ = nullptr;

    TimeNs bucketWidth_;
    double invWidth_;
    TimeNs now_ = 0.0;
    uint64_t seq_ = 0;
    uint64_t executed_ = 0;
    size_t pending_ = 0;

    QueueProfile *prof_ = nullptr;

    // Telemetry heartbeat hook (null = detached). The countdown is
    // decremented per executed event only while monitor_ is set.
    telemetry::Monitor *monitor_ = nullptr;
    uint64_t monitorCountdown_ = 0;
};

} // namespace astra

#endif // ASTRA_EVENT_EVENT_QUEUE_H_
