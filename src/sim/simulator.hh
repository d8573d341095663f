/**
 * @file
 * Discrete-event simulation core.
 *
 * The whole GPU model is driven by one Simulator: entities schedule
 * callbacks at absolute virtual times (measured in device cycles) and
 * the simulator dispatches them in (time, sequence) order, which makes
 * every run fully deterministic. Events can be cancelled through the
 * EventHandle returned at scheduling time.
 *
 * The engine is built for throughput: events live in a slab of
 * recycled slots (no per-event allocation), ordering is a 4-ary
 * min-heap of packed (time, seq, slot) keys (no per-event map
 * bookkeeping), cancellation is generation-counted — a stale handle
 * is detected by a counter compare, never a lookup — and callbacks
 * are stored in EventFn, a move-only function whose inline buffer
 * fits every hot-path continuation without touching the allocator.
 * Events scheduled with afterFixed() skip the heap: each fixed delay
 * has a FIFO lane whose events are already in key order, and
 * dispatch takes the least key over the heap top and the lane heads
 * (docs/MODEL.md, "Event engine internals").
 */

#ifndef VP_SIM_SIMULATOR_HH
#define VP_SIM_SIMULATOR_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "common/ring.hh"

namespace vp {

/** Virtual time in device cycles. Fractional cycles are permitted. */
using Tick = double;

/**
 * Move-only callable of signature void() with a small-buffer store.
 *
 * The simulator fires millions of continuations per run; std::function
 * heap-allocates any capture list larger than two words, which puts an
 * allocator round trip on the fetch/execute/push loop of every
 * persistent block. EventFn keeps captures up to kInlineBytes inline
 * (enough for the block/SM continuations, which capture a pointer or
 * two plus a wrapped callback) and only falls back to the heap for
 * genuinely large closures.
 */
class EventFn
{
  public:
    /** Inline capture capacity, bytes. */
    static constexpr std::size_t kInlineBytes = 56;

    EventFn() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn>>>
    EventFn(F&& f) // NOLINT: implicit by design, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes
                      && alignof(Fn) <= alignof(std::max_align_t)
                      && std::is_trivially_copyable_v<Fn>
                      && std::is_trivially_destructible_v<Fn>) {
            // Pointer-capture closures (the hot-path continuations):
            // relocation is a plain memcpy and destruction a no-op,
            // signalled by null relocate/destroy entries.
            new (buf_) Fn(std::forward<F>(f));
            ops_ = &trivialOps<Fn>;
        } else if constexpr (sizeof(Fn) <= kInlineBytes
                             && alignof(Fn)
                                    <= alignof(std::max_align_t)
                             && std::is_nothrow_move_constructible_v<
                                    Fn>) {
            new (buf_) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn**>(buf_) =
                new Fn(std::forward<F>(f));
            ops_ = &heapOps<Fn>;
        }
    }

    EventFn(EventFn&& other) noexcept { moveFrom(other); }

    EventFn&
    operator=(EventFn&& other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventFn(const EventFn&) = delete;
    EventFn& operator=(const EventFn&) = delete;

    ~EventFn() { reset(); }

    /** True when a callable is stored. */
    explicit operator bool() const { return ops_ != nullptr; }

    /** Invoke the stored callable. */
    void
    operator()()
    {
        VP_ASSERT(ops_, "invoking an empty EventFn");
        ops_->invoke(buf_);
    }

    /** Drop the stored callable (if any). */
    void
    reset()
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void*);
        /** Relocate from src into (raw) dst, leaving src destroyed;
         *  null means "memcpy the buffer". */
        void (*relocate)(void* src, void* dst) noexcept;
        /** Null means trivially destructible. */
        void (*destroy)(void*);
    };

    template <typename Fn>
    static constexpr Ops trivialOps = {
        [](void* p) { (*static_cast<Fn*>(p))(); },
        nullptr,
        nullptr,
    };

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* src, void* dst) noexcept {
            auto* f = static_cast<Fn*>(src);
            new (dst) Fn(std::move(*f));
            f->~Fn();
        },
        [](void* p) { static_cast<Fn*>(p)->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void* p) { (**static_cast<Fn**>(p))(); },
        [](void* src, void* dst) noexcept {
            *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
        },
        [](void* p) { delete *static_cast<Fn**>(p); },
    };

    void
    moveFrom(EventFn& other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            if (ops_->relocate)
                ops_->relocate(other.buf_, buf_);
            else
                __builtin_memcpy(buf_, other.buf_, kInlineBytes);
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    const Ops* ops_ = nullptr;
};

/**
 * Token identifying a scheduled event so it can be cancelled.
 *
 * A handle names (slab slot, generation). The generation is bumped
 * whenever a slot is recycled, so handles to events that already fired
 * or were cancelled go stale instead of aliasing the slot's next
 * tenant.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** True when this handle refers to a scheduled (maybe run) event. */
    bool valid() const { return slot_ != kNone; }

  private:
    friend class Simulator;
    static constexpr std::uint32_t kNone = 0xffffffffu;

    EventHandle(std::uint32_t slot, std::uint32_t gen)
        : slot_(slot), gen_(gen)
    {}

    std::uint32_t slot_ = kNone;
    std::uint32_t gen_ = 0;
};

/**
 * Deterministic event-driven simulator with a virtual cycle clock.
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /** Current virtual time in cycles. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when. Scheduling into
     * the past (beyond a small floating-point tolerance) is an
     * invariant violation and panics rather than reordering time.
     * @return a handle that can be used to cancel the event.
     */
    EventHandle at(Tick when, EventFn fn);

    /**
     * Schedule @p fn to run @p delay cycles from now. Negative (or
     * NaN) delays panic.
     */
    EventHandle after(Tick delay, EventFn fn);

    /**
     * after(@p delay, @p fn) for a delay the caller repeats (poll
     * backoffs, commit retries): the event joins the FIFO lane of
     * @p delay instead of the heap. The time, the sequence number and
     * so the dispatch order are exactly after()'s; only the cost
     * differs (O(1) instead of a heap sift). Meant for a handful of
     * distinct delays: each lane adds a compare to every dispatch,
     * and delays past the eighth lane go on the heap.
     */
    EventHandle afterFixed(Tick delay, EventFn fn);

    /** Cancel a previously scheduled event; no-op if already run. */
    void cancel(EventHandle h);

    /** Run until no events remain. @return the final virtual time. */
    Tick run();

    /**
     * Run until no events remain or @p limit events have fired.
     * @return true when the queue drained, false on the event limit
     * (useful as a hang detector in tests).
     */
    bool runBounded(std::uint64_t limit);

    /**
     * Run until the queue drains, the next event lies beyond
     * @p timeLimit, or @p eventLimit events have fired.
     * @return true when the queue drained within the limits (the
     * auto-tuner's timeout-execute primitive).
     */
    bool runUntil(Tick timeLimit, std::uint64_t eventLimit);

    /**
     * Advance the clock to @p t without dispatching anything. Only
     * legal when no pending event fires before @p t; the Supervisor
     * uses it to hop a serving run's clock to its next epoch
     * boundary.
     */
    void advanceTo(Tick t);

    /** Number of events dispatched so far. */
    std::uint64_t eventsRun() const { return eventsRun_; }

    /** Number of events currently pending. */
    std::size_t
    pendingEvents() const
    {
        return heap_.size() + laneLive_;
    }

    /**
     * Ask the run loop to return after the current event. Used by the
     * fault watchdog to convert a wedged pipeline into a structured
     * failure instead of spinning to an event/cycle cap. Sticky until
     * clearStop().
     */
    void requestStop() { stop_ = true; }

    /** True once requestStop() has been called. */
    bool stopRequested() const { return stop_; }

    /** Re-arm the run loop after a requested stop. */
    void clearStop() { stop_ = false; }

  private:
    /** One slab slot: either a pending event or a freelist link. */
    struct Slot
    {
        EventFn fn;
        /** Bumped on recycle; stale EventHandles mismatch. */
        std::uint32_t gen = 0;
        /** Position in heap_, kInLane, or kNotQueued. */
        std::uint32_t heapPos = kNotQueued;
        /** Next free slot when on the freelist. */
        std::uint32_t nextFree = EventHandle::kNone;
    };

    /**
     * One heap element. The ordering key (when, seq) lives here, not
     * in the slab, so sift comparisons stay within the contiguous
     * heap array instead of chasing slab indices. seq and slot are
     * packed into one word to keep the entry at 16 bytes (a 4-ary
     * node's children span exactly one cache line): because sequence
     * numbers are unique, comparing the packed word orders by seq
     * and the slot bits can never decide a comparison.
     */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seqSlot;

        std::uint32_t
        slot() const
        {
            return static_cast<std::uint32_t>(seqSlot & kSlotMask);
        }
    };

    /** Low bits of HeapEntry::seqSlot hold the slab slot. */
    static constexpr std::uint64_t kSlotBits = 20;
    static constexpr std::uint64_t kSlotMask =
        (std::uint64_t(1) << kSlotBits) - 1;

    static constexpr std::uint32_t kNotQueued = 0xffffffffu;
    /** Slot::heapPos of an event waiting in a lane. */
    static constexpr std::uint32_t kInLane = 0xfffffffeu;

    /**
     * One lane element: the heap's key plus the slot generation it
     * was scheduled under. Cancellation frees the slot at once and
     * leaves the entry behind; a generation mismatch marks it dead
     * when it reaches the head.
     */
    struct LaneEntry
    {
        HeapEntry key;
        std::uint32_t gen;
    };

    /**
     * FIFO of the events scheduled afterFixed(delay), in (when, seq)
     * order: each entry's time is now + delay at its scheduling, and
     * afterFixed sends an event that would sort before the tail to
     * the heap instead.
     */
    struct Lane
    {
        Tick delay;
        Ring<LaneEntry> fifo;
    };

    /** Lanes beyond this many distinct delays fall back to the heap. */
    static constexpr std::size_t kMaxLanes = 8;

    /** Next event to dispatch: its key and where it waits. */
    struct Next
    {
        /** Null when nothing is pending. */
        const HeapEntry* key;
        /** Lane index, or -1 for the heap top. */
        int lane;
    };

    /** Heap arity: 4-ary halves the depth vs. binary and keeps a
     *  node's children in exactly one cache line. */
    static constexpr std::uint32_t kArity = 4;

    static bool
    firesBefore(const HeapEntry& a, const HeapEntry& b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seqSlot < b.seqSlot;
    }

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t idx);

    /** Store @p fn in a fresh slot and take the next sequence number.
     *  @return the packed HeapEntry::seqSlot word. */
    std::uint64_t claim(EventFn fn);
    void heapPush(HeapEntry e);
    void heapRemove(std::uint32_t pos);
    void siftUp(std::uint32_t pos);
    void siftDown(std::uint32_t pos);

    /** The lane for @p delay, made on first use; null past
     *  kMaxLanes. */
    Lane* laneFor(Tick delay);

    /** Least key over the heap top and the live lane heads. Drops
     *  cancelled lane heads on the way. */
    Next next();

    /** Pop and fire the event @p n names. */
    void dispatch(Next n);

    Tick now_ = 0.0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t eventsRun_ = 0;
    std::vector<Slot> slab_;
    /**
     * 4-ary min-heap ordered by (when, seq). Cancelled events are
     * removed eagerly via the slab's heap-position back-pointer;
     * keeping dead entries around (lazy deletion) measured slower —
     * every tombstone eventually costs a full root pop plus a slab
     * probe, and the extra depth taxes all sifts.
     */
    std::vector<HeapEntry> heap_;
    /**
     * Fixed-delay lanes, one per distinct afterFixed() delay.
     * Cancellation here is lazy: a FIFO cannot drop a middle entry
     * cheaply, and lane events (polls) are cancelled only when a
     * fault aborts their block.
     */
    std::vector<Lane> lanes_;
    /** Live events in lanes_ (pendingEvents counts them). */
    std::size_t laneLive_ = 0;
    std::uint32_t freeHead_ = EventHandle::kNone;
    bool stop_ = false;
};

} // namespace vp

#endif // VP_SIM_SIMULATOR_HH
