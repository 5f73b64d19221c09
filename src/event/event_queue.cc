#include "event/event_queue.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace astra {

namespace {

/** Histogram slot for a count: its bit-width, clamped to the array. */
inline size_t
log2Slot(size_t n)
{
    size_t w = std::bit_width(n);
    return w < 31 ? w : 31;
}

/** Circular distance from bit `start` to the first set bit of a
 *  bitmap; the bitmap must have a bit set. */
template <size_t W>
size_t
firstSetFrom(const std::array<uint64_t, W> &bits, size_t start)
{
    size_t w = start >> 6;
    uint64_t word = bits[w] & (~uint64_t{0} << (start & 63));
    while (word == 0) {
        w = (w + 1) & (W - 1);
        word = bits[w];
    }
    size_t pos = (w << 6) + static_cast<size_t>(std::countr_zero(word));
    return (pos - start) & (W * 64 - 1);
}

} // namespace

EventQueue::EventQueue(TimeNs bucket_width)
    : level0_(std::make_unique<Level<kLevel0Slots>>()),
      level1_(std::make_unique<Level<kLevelSlots>>()),
      level2_(std::make_unique<Level<kLevelSlots>>()),
      bucketWidth_(bucket_width), invWidth_(1.0 / bucket_width)
{
    ASTRA_ASSERT(bucket_width > 0.0, "bucket width must be positive");
}

EventQueue::~EventQueue()
{
    dropLevels();
}

void
EventQueue::dropLevels()
{
    auto drop = [](Entry &&) {};
    takeLevel(*level0_, drop);
    takeLevel(*level1_, drop);
    takeLevel(*level2_, drop);
}

bool
EventQueue::entryBefore(const Entry &a, const Entry &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    return a.seq < b.seq;
}

bool
EventQueue::entryAfter(const Entry &a, const Entry &b)
{
    return entryBefore(b, a);
}

void
EventQueue::addSlabBlock()
{
    static_assert(std::is_trivially_destructible_v<Chunk>,
                  "slab blocks are freed as bytes");
    constexpr size_t bytes = kSlabBlockChunks * sizeof(Chunk);
    size_t space = bytes + alignof(Chunk);
    slabBlocks_.push_back(
        std::make_unique_for_overwrite<unsigned char[]>(space));
    void *raw = slabBlocks_.back().get();
    auto *block =
        static_cast<Chunk *>(std::align(alignof(Chunk), bytes, raw, space));
    for (size_t i = 0; i < kSlabBlockChunks; ++i) {
        Chunk *chunk = ::new (&block[i]) Chunk;
        chunk->next = freeChunks_;
        freeChunks_ = chunk;
    }
}

EventQueue::Chunk *
EventQueue::takeChunk()
{
    if (freeChunks_ == nullptr)
        addSlabBlock();
    Chunk *chunk = freeChunks_;
    freeChunks_ = chunk->next;
    chunk->next = nullptr;
    return chunk;
}

template <size_t N>
void
EventQueue::append(Level<N> &level, size_t slot, TimeNs when,
                   uint64_t seq, InlineEvent &&cb)
{
    Bucket &b = level.buckets[slot];
    if (b.tail == nullptr) {
        b.head = b.tail = takeChunk();
        b.tailFill = 0;
        level.occupied[slot >> 6] |= uint64_t{1} << (slot & 63);
    } else if (b.tailFill == kChunkEntries) {
        Chunk *chunk = takeChunk();
        b.tail->next = chunk;
        b.tail = chunk;
        b.tailFill = 0;
    }
    ::new (b.tail->slot(b.tailFill++)) Entry{when, seq, std::move(cb)};
    ++level.count;
}

template <size_t N, typename Sink>
void
EventQueue::takeBucket(Level<N> &level, size_t slot, Sink &&sink)
{
    Bucket b = level.buckets[slot];
    level.buckets[slot] = Bucket{};
    level.occupied[slot >> 6] &= ~(uint64_t{1} << (slot & 63));
    for (Chunk *chunk = b.head; chunk != nullptr;) {
        size_t fill = chunk == b.tail ? b.tailFill : kChunkEntries;
        for (size_t i = 0; i < fill; ++i) {
            Entry &e = chunk->at(i);
            sink(std::move(e));
            e.~Entry();
        }
        level.count -= fill;
        // The sink may take chunks (moveDown appends elsewhere); this
        // one is read out, so it can go back to the slab first.
        Chunk *next = chunk->next;
        chunk->next = freeChunks_;
        freeChunks_ = chunk;
        chunk = next;
    }
}

template <size_t N, typename Sink>
void
EventQueue::takeLevel(Level<N> &level, Sink &&sink)
{
    for (size_t w = 0; w < level.occupied.size(); ++w) {
        while (level.occupied[w] != 0) {
            size_t slot = (w << 6) + static_cast<size_t>(
                                         std::countr_zero(level.occupied[w]));
            takeBucket(level, slot, sink);
        }
    }
}

int
EventQueue::place(TimeNs when, uint64_t seq, InlineEvent &&cb,
                  int64_t tick)
{
    const int64_t horizon = horizonBlock();
    const int64_t block = tick >> kLevelBits;
    if (block <= horizon) {
        append(*level0_, static_cast<size_t>(tick) & (kLevel0Slots - 1),
               when, seq, std::move(cb));
        return 0;
    }
    const int64_t super = block >> kLevelBits;
    const int64_t horizonSuper = horizon >> kLevelBits;
    if (super == horizonSuper) {
        append(*level1_, static_cast<size_t>(block) & kSlotMask, when, seq,
               std::move(cb));
        return 1;
    }
    if (super - horizonSuper < static_cast<int64_t>(kLevelSlots)) {
        append(*level2_, static_cast<size_t>(super) & kSlotMask, when, seq,
               std::move(cb));
        return 2;
    }
    heap_.push_back(Entry{when, seq, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), entryAfter);
    return 3;
}

template <size_t N>
void
EventQueue::moveDown(Level<N> &level, size_t slot)
{
    uint64_t moved = 0;
    takeBucket(level, slot, [this, &moved](Entry &&e) {
        place(e.when, e.seq, std::move(e.cb), tickOf(e.when));
        ++moved;
    });
    if (prof_)
        prof_->movedDown += moved;
}

void
EventQueue::drainHeap()
{
    const int64_t limit = (horizonBlock() >> kLevelBits) +
                          static_cast<int64_t>(kLevelSlots);
    uint64_t moved = 0;
    while (!heap_.empty() &&
           (tickOf(heap_.front().when) >> kSuperBits) < limit) {
        std::pop_heap(heap_.begin(), heap_.end(), entryAfter);
        Entry e = std::move(heap_.back());
        heap_.pop_back();
        place(e.when, e.seq, std::move(e.cb), tickOf(e.when));
        ++moved;
    }
    if (prof_)
        prof_->movedDown += moved;
}

void
EventQueue::moveBase(int64_t tick)
{
    const int64_t oldBlock = baseTick_ >> kLevelBits;
    const int64_t oldSuper = (oldBlock + 1) >> kLevelBits;
    baseTick_ = tick;
    const int64_t block = tick >> kLevelBits;
    if (block == oldBlock)
        return;
    // Level 0 now covers `block` and `block + 1`. Whichever of them
    // was not covered before sat in level 1 if it shares the old
    // horizon's superblock (blocks in between are empty: the base
    // only ever moves to the earliest pending position).
    if (level1_->count > 0) {
        for (int64_t b = std::max(block, oldBlock + 2); b <= block + 1; ++b)
            if ((b >> kLevelBits) == oldSuper)
                moveDown(*level1_, static_cast<size_t>(b) & kSlotMask);
    }
    const int64_t super = (block + 1) >> kLevelBits;
    if (super == oldSuper)
        return;
    // The horizon entered a new superblock: level 1 is empty now, the
    // superblock's level-2 bucket spreads over levels 0 and 1, and the
    // heap feeds level 2's new far end.
    ASTRA_ASSERT(level1_->count == 0, "level 1 not drained");
    if (level2_->count > 0 &&
        super - oldSuper < static_cast<int64_t>(kLevelSlots))
        moveDown(*level2_, static_cast<size_t>(super) & kSlotMask);
    drainHeap();
}

int64_t
EventQueue::nextTick()
{
    for (;;) {
        if (level0_->count > 0) {
            size_t start = static_cast<size_t>(baseTick_) &
                           (kLevel0Slots - 1);
            int64_t tick = baseTick_ + static_cast<int64_t>(
                                           firstSetFrom(level0_->occupied,
                                                        start));
            moveBase(tick);
            return tick;
        }
        // Nothing in the two level-0 blocks: jump the base to the start
        // of the earliest occupied block or superblock (or the heap's
        // first superblock), which moves it down, and look again.
        const int64_t horizonSuper = horizonBlock() >> kLevelBits;
        if (level1_->count > 0) {
            int64_t block = (horizonSuper << kLevelBits) +
                            static_cast<int64_t>(
                                firstSetFrom(level1_->occupied, 0));
            moveBase(block << kLevelBits);
        } else if (level2_->count > 0) {
            size_t start =
                static_cast<size_t>(horizonSuper + 1) & kSlotMask;
            int64_t super = horizonSuper + 1 +
                            static_cast<int64_t>(
                                firstSetFrom(level2_->occupied, start));
            moveBase(super << kSuperBits);
        } else {
            ASTRA_ASSERT(!heap_.empty(), "pending events lost");
            int64_t super = tickOf(heap_.front().when) >> kSuperBits;
            moveBase(super << kSuperBits);
        }
    }
}

void
EventQueue::activate(int64_t tick)
{
    takeBucket(*level0_, static_cast<size_t>(tick) & (kLevel0Slots - 1),
               [this](Entry &&e) { active_.push_back(std::move(e)); });
    // Appends carry monotonically increasing seq, so a bucket filled
    // in nondecreasing time order — the common case: synchronized
    // completion waves put hundreds of equal-timestamp events in one
    // bucket — is already in (when, seq) order. Detect that in one
    // early-exit pass instead of paying the full sort; a genuinely
    // shuffled bucket fails the check within a few elements.
    bool sorted = std::is_sorted(active_.begin(), active_.end(),
                                 entryBefore);
    if (!sorted)
        std::sort(active_.begin(), active_.end(), entryBefore);
    activeHead_ = 0;
    activeOpen_ = true;
    if (prof_) {
        ++prof_->bucketActivations;
        ++prof_->bucketHist[log2Slot(active_.size())];
        if (!sorted)
            ++prof_->bucketSorts;
    }
}

void
EventQueue::schedule(TimeNs delay, EventCallback &&cb)
{
    ASTRA_ASSERT(delay >= 0.0, "negative event delay %g", delay);
    scheduleAt(now_ + delay, std::move(cb));
}

void
EventQueue::scheduleAt(TimeNs when, EventCallback &&cb)
{
    ASTRA_ASSERT(timeNotBefore(when, now_),
                 "event scheduled in the past (when=%g now=%g)", when, now_);
    if (when <= now_) {
        // At (or within tolerance of) the current time: FIFO order is
        // (time, insertion) order for equal timestamps. O(1), and by
        // far the hottest scheduling path (zero-delay deferrals).
        ++pending_;
        nowFifo_.push_back(std::move(cb));
        return;
    }
    // tickOf() needs the tick to fit an int64_t. A later time comes
    // from an input (a huge flop count, a near-zero bandwidth), not
    // from the simulator, so it is the user's error.
    ASTRA_USER_CHECK(when * invWidth_ < 0x1p63,
                     "simulated time %g ns is beyond the event queue's "
                     "range (%g ns)",
                     when, 0x1p63 * bucketWidth_);
    ++pending_;
    const int64_t tick = tickOf(when);
    const uint64_t seq = seq_++;
    int level = 0;
    if (tick > baseTick_) {
        level = place(when, seq, std::move(cb), tick);
    } else {
        if (tick < baseTick_)
            rebase(tick);
        if (activeOpen_) {
            // Insert into the live (sorted) bucket at its ordered slot;
            // (when, seq) sorts after every entry at `when` already in.
            auto pos = std::upper_bound(
                active_.begin() + static_cast<ptrdiff_t>(activeHead_),
                active_.end(), when,
                [](TimeNs t, const Entry &e) { return t < e.when; });
            active_.insert(pos, Entry{when, seq, std::move(cb)});
        } else {
            append(*level0_, static_cast<size_t>(tick) & (kLevel0Slots - 1),
                   when, seq, std::move(cb));
        }
    }
    if (prof_)
        ++prof_->timedByLevel[static_cast<size_t>(level)];
}

void
EventQueue::rebase(int64_t tick)
{
    // A new event lands below the base tick. This can only happen
    // when runUntil() stopped inside a gap: ensureNext() had already
    // advanced the wheel to the next pending event's tick (beyond
    // `until`), and the caller then scheduled between `until` and that
    // event. No event of the active tick has executed in that state
    // (executing one would have pulled now_ — and so every later
    // schedule — up to baseTick_), so every timed entry can be spilled
    // into the heap and re-placed around the lower base. Rare (once
    // per cluster job arrival at most), so simplicity wins.
    ASTRA_ASSERT(activeHead_ == 0, "rebase with a part-drained bucket");
    auto spill = [this](Entry &&e) {
        heap_.push_back(std::move(e));
        std::push_heap(heap_.begin(), heap_.end(), entryAfter);
    };
    for (Entry &e : active_)
        spill(std::move(e));
    active_.clear();
    takeLevel(*level0_, spill);
    takeLevel(*level1_, spill);
    takeLevel(*level2_, spill);
    baseTick_ = tick;
    activeOpen_ = false;
    drainHeap();
}

bool
EventQueue::ensureNext()
{
    if (nowHead_ < nowFifo_.size() || activeHead_ < active_.size())
        return true;
    if (pending_ == 0)
        return false;
    activate(nextTick());
    return true;
}

TimeNs
EventQueue::nextTime() const
{
    if (nowHead_ < nowFifo_.size())
        return now_;
    return active_[activeHead_].when;
}

InlineEvent
EventQueue::popNext()
{
    const bool fifo = nowHead_ < nowFifo_.size();
    // Active entries at now_ were scheduled before the clock reached
    // now_, so they precede everything in the FIFO (scheduled at
    // now_); later active entries wait for the FIFO to drain.
    if (activeHead_ < active_.size() &&
        (!fifo || active_[activeHead_].when == now_)) {
        Entry &e = active_[activeHead_];
        if (e.when != now_) {
            now_ = e.when;
            // When this time's run reaches the end of the bucket, the
            // bucket counts as drained: later schedules into this tick
            // go to level 0 and re-activate it once the run and the
            // FIFO are done, rather than into the drained bucket.
            if (active_.back().when == now_)
                activeOpen_ = false;
        }
        InlineEvent cb = std::move(e.cb);
        if (++activeHead_ == active_.size()) {
            active_.clear();
            activeHead_ = 0;
        }
        return cb;
    }
    InlineEvent cb = std::move(nowFifo_[nowHead_++]);
    if (nowHead_ == nowFifo_.size()) {
        nowFifo_.clear();
        nowHead_ = 0;
    }
    return cb;
}

TimeNs
EventQueue::run()
{
    while (step()) {
    }
    return now_;
}

TimeNs
EventQueue::runUntil(TimeNs until)
{
    while (ensureNext() && nextTime() <= until)
        step();
    if (now_ < until)
        now_ = until;
    return now_;
}

bool
EventQueue::step()
{
    if (!ensureNext())
        return false;
    InlineEvent cb = popNext();
    --pending_;
    ++executed_;
    if (monitor_ != nullptr && --monitorCountdown_ == 0)
        monitorCountdown_ = monitor_->poll(now_, executed_, pending_);
    if (prof_) {
        profiledDispatch(std::move(cb));
        return true;
    }
    if (cb)
        cb();
    return true;
}

void
EventQueue::profiledDispatch(InlineEvent cb)
{
    if (executed_ % QueueProfile::kDepthSampleEvery == 0) {
        ++prof_->depthSamples;
        ++prof_->depthHist[log2Slot(pending_)];
    }
    if (!cb)
        return;
    if (prof_->timeCallbacks &&
        executed_ % QueueProfile::kCallbackSampleEvery == 0) {
        auto t0 = std::chrono::steady_clock::now();
        cb();
        auto t1 = std::chrono::steady_clock::now();
        ++prof_->callbackSamples;
        prof_->callbackWallSeconds +=
            std::chrono::duration<double>(t1 - t0).count() *
            double(QueueProfile::kCallbackSampleEvery);
        return;
    }
    cb();
}

void
EventQueue::setMonitor(telemetry::Monitor *monitor)
{
    monitor_ = monitor;
    monitorCountdown_ = monitor ? monitor->initialCountdown() : 0;
}

size_t
EventQueue::bytesInUse() const
{
    return nowFifo_.capacity() * sizeof(InlineEvent) +
           (active_.capacity() + heap_.capacity()) * sizeof(Entry) +
           slabBlocks_.size() * kSlabBlockChunks * sizeof(Chunk) +
           sizeof(*level0_) + sizeof(*level1_) + sizeof(*level2_);
}

void
EventQueue::reset()
{
    nowFifo_.clear();
    nowHead_ = 0;
    active_.clear();
    activeHead_ = 0;
    activeOpen_ = false;
    dropLevels();
    heap_.clear();
    baseTick_ = 0;
    now_ = 0.0;
    seq_ = 0;
    executed_ = 0;
    pending_ = 0;
}

void
EventQueue::reserve(size_t events)
{
    size_t chunks = (events + kChunkEntries - 1) / kChunkEntries;
    while (slabBlocks_.size() * kSlabBlockChunks < chunks)
        addSlabBlock();
}

} // namespace astra
