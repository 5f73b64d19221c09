/**
 * @file
 * Zero-allocation event callback (the hot-path replacement for
 * `std::function<void()>` in the discrete-event core).
 *
 * Simulations schedule one callback per message hop, chunk phase, and
 * memory access; at 4k+ NPUs that is tens of millions of closures per
 * run, and `std::function`'s heap allocation for captures beyond its
 * (implementation-defined, ~16 B) small-buffer dominates the event
 * dispatch profile. InlineEvent fixes the capture budget explicitly:
 *
 *  - Captures up to kInlineBytes (40 B) are stored inline. That is
 *    exactly the packet backend's per-hop closure, the largest one
 *    scheduled per message; the collective engine's delivery closure
 *    ([this, id, rank, chunk, phase]) takes 32 B.
 *    tests/event/test_inline_budget.cc fails if one of them outgrows
 *    the budget.
 *  - Larger captures (typically closures that themselves own another
 *    InlineEvent, e.g. a completion chain) fall back to fixed
 *    size-class blocks recycled through a free list (CallbackPool), so
 *    steady-state execution performs no general-purpose heap traffic.
 *  - Trivially-movable captures relocate with memcpy (no per-move
 *    virtual dispatch), which keeps event-queue sorting cheap.
 *
 * InlineEvent is move-only (unlike std::function it accepts move-only
 * captures such as unique_ptr). The simulation core is single-threaded
 * by design (one EventQueue drives one simulation).
 *
 * Threading contract
 * ------------------
 * CallbackPool keeps its free lists and counters in `thread_local`
 * state, so independent simulations may run concurrently on separate
 * threads with no synchronization and no false sharing — this is what
 * makes batch runs (src/sweep) embarrassingly parallel. The rules:
 *
 *  - A simulation (EventQueue, Simulator, and every InlineEvent it
 *    creates) must be confined to a single thread for its lifetime.
 *    Pooled capture blocks are returned to the free list of the thread
 *    that destroys the event; destroying an event on a different
 *    thread than the one that created it would migrate the block and
 *    corrupt both threads' counters.
 *  - Pool counters (outstanding/heapAllocs/cached, or the combined
 *    stats() snapshot) report the *calling thread's* pool only. Only
 *    tests read them: the event tests check that captures are pooled,
 *    returned, and kept apart per worker thread.
 *  - Blocks cached by a worker thread are released when the thread
 *    exits (thread_local destructor), not at process exit.
 */
#ifndef ASTRA_EVENT_INLINE_EVENT_H_
#define ASTRA_EVENT_INLINE_EVENT_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace astra {

/**
 * Free-list allocator for out-of-line callback captures.
 *
 * Blocks come in four size classes (64/128/256/512 B); freed blocks
 * are cached per class and reused, so after warm-up the pool serves
 * allocations without touching the system heap. Captures above the
 * largest class (rare; a deliberately large test capture) fall through
 * to plain operator new. Counters are exposed for tests and benches.
 *
 * All state is per-thread (see the threading contract in the file
 * comment): each thread allocates from and frees to its own pool.
 */
class CallbackPool
{
  public:
    static constexpr size_t kClassSizes[4] = {64, 128, 256, 512};

    static void *
    allocate(size_t bytes)
    {
        State &st = state();
        int cls = classOf(bytes);
        ++st.live;
        if (cls < 0) {
            ++st.heapAllocs;
            return ::operator new(bytes);
        }
        std::vector<void *> &fl = st.freeList[cls];
        if (!fl.empty()) {
            void *p = fl.back();
            fl.pop_back();
            return p;
        }
        ++st.heapAllocs;
        return ::operator new(kClassSizes[cls]);
    }

    static void
    deallocate(void *p, size_t bytes) noexcept
    {
        State &st = state();
        --st.live;
        int cls = classOf(bytes);
        if (cls < 0) {
            ::operator delete(p);
            return;
        }
        st.freeList[cls].push_back(p);
    }

    /** Blocks currently handed out by this thread's pool. */
    static size_t outstanding() { return state().live; }

    /** Times this thread's pool went to the system heap (cold misses). */
    static uint64_t heapAllocs() { return state().heapAllocs; }

    /** Blocks cached in this thread's free lists, ready for reuse. */
    static size_t
    cached()
    {
        size_t n = 0;
        for (const std::vector<void *> &fl : state().freeList)
            n += fl.size();
        return n;
    }

    /** Per-thread counter snapshot (read by the event tests, e.g. on
     *  a worker thread around an event's destruction). */
    struct Stats
    {
        size_t outstanding = 0;
        uint64_t heapAllocs = 0;
        size_t cached = 0;
    };

    /** Snapshot of the calling thread's pool counters. */
    static Stats
    stats()
    {
        return Stats{outstanding(), heapAllocs(), cached()};
    }

  private:
    struct State
    {
        std::vector<void *> freeList[4];
        size_t live = 0;
        uint64_t heapAllocs = 0;

        ~State()
        {
            for (std::vector<void *> &fl : freeList)
                for (void *p : fl)
                    ::operator delete(p);
        }
    };

    static State &
    state()
    {
        // One pool per thread: parallel batch runs (src/sweep) place
        // whole simulations on worker threads, and each allocates and
        // frees exclusively against its own free lists.
        thread_local State st;
        return st;
    }

    static constexpr int
    classOf(size_t bytes)
    {
        for (int c = 0; c < 4; ++c)
            if (bytes <= kClassSizes[c])
                return c;
        return -1;
    }
};

/** See file comment. */
class InlineEvent
{
  public:
    /** Inline capture budget; sized so every closure on the message
     *  hot path (this + a few ids) stays in-place, and so that with
     *  the ops pointer an InlineEvent is 48 B and an EventQueue entry
     *  (time, sequence, callback) one 64 B cache line. */
    static constexpr size_t kInlineBytes = 40;

    InlineEvent() noexcept = default;
    InlineEvent(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineEvent> &&
                  std::is_invocable_v<std::decay_t<F> &>>>
    InlineEvent(F &&f)
    {
        emplace(std::forward<F>(f));
    }

    InlineEvent(InlineEvent &&other) noexcept { moveFrom(other); }

    InlineEvent &
    operator=(InlineEvent &&other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(other);
        }
        return *this;
    }

    InlineEvent &
    operator=(std::nullptr_t) noexcept
    {
        destroy();
        return *this;
    }

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineEvent> &&
                  std::is_invocable_v<std::decay_t<F> &>>>
    InlineEvent &
    operator=(F &&f)
    {
        destroy();
        emplace(std::forward<F>(f));
        return *this;
    }

    InlineEvent(const InlineEvent &) = delete;
    InlineEvent &operator=(const InlineEvent &) = delete;

    ~InlineEvent() { destroy(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    void
    operator()()
    {
        assert(ops_ != nullptr && "invoking empty InlineEvent");
        ops_->invoke(buf_);
    }

    /** True when the capture lives in the inline buffer (for tests). */
    bool
    isInline() const noexcept
    {
        return ops_ != nullptr && !ops_->pooled;
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Null means "relocate with memcpy of the whole buffer". */
        void (*moveDestroy)(void *src, void *dst) noexcept;
        /** Null means "no destruction needed". */
        void (*destroy)(void *) noexcept;
        bool pooled;
    };

    template <typename F>
    static constexpr bool kFitsInline =
        sizeof(F) <= kInlineBytes &&
        alignof(F) <= alignof(std::max_align_t);

    template <typename F>
    static constexpr bool kTrivialMove =
        std::is_trivially_move_constructible_v<F> &&
        std::is_trivially_destructible_v<F>;

    template <typename F> struct InlineOps
    {
        static void
        invoke(void *p)
        {
            (*std::launder(reinterpret_cast<F *>(p)))();
        }
        static void
        moveDestroy(void *src, void *dst) noexcept
        {
            F *from = std::launder(reinterpret_cast<F *>(src));
            ::new (dst) F(std::move(*from));
            from->~F();
        }
        static void
        destroy(void *p) noexcept
        {
            std::launder(reinterpret_cast<F *>(p))->~F();
        }
        static constexpr Ops ops{&invoke,
                                 kTrivialMove<F> ? nullptr : &moveDestroy,
                                 std::is_trivially_destructible_v<F>
                                     ? nullptr
                                     : &destroy,
                                 false};
    };

    template <typename F> struct PooledOps
    {
        static F *&
        slot(void *p)
        {
            return *std::launder(reinterpret_cast<F **>(p));
        }
        static void
        invoke(void *p)
        {
            (*slot(p))();
        }
        static void
        destroy(void *p) noexcept
        {
            F *obj = slot(p);
            obj->~F();
            CallbackPool::deallocate(obj, sizeof(F));
        }
        // moveDestroy is null: relocating the owning pointer is a
        // memcpy, and the moved-from event's ops_ is nulled so the
        // block is never freed twice.
        static constexpr Ops ops{&invoke, nullptr, &destroy, true};
    };

    template <typename F>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (kFitsInline<Fn>) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &InlineOps<Fn>::ops;
        } else {
            static_assert(alignof(Fn) <= alignof(std::max_align_t),
                          "over-aligned captures are not supported");
            void *block = CallbackPool::allocate(sizeof(Fn));
            Fn *obj = ::new (block) Fn(std::forward<F>(f));
            ::new (static_cast<void *>(buf_)) Fn *(obj);
            ops_ = &PooledOps<Fn>::ops;
        }
    }

    void
    moveFrom(InlineEvent &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            if (ops_->moveDestroy != nullptr)
                ops_->moveDestroy(other.buf_, buf_);
            else
                std::memcpy(buf_, other.buf_, kInlineBytes);
            other.ops_ = nullptr;
        }
    }

    void
    destroy() noexcept
    {
        if (ops_ != nullptr) {
            if (ops_->destroy != nullptr)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace astra

#endif // ASTRA_EVENT_INLINE_EVENT_H_
