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
 * A persistent block whose queues are empty parks a poll chain
 * instead of scheduling its next poll: the chain's polls stay
 * virtual, counted wherever polls count, and only the poll that can
 * see new work is dispatched, under the exact key it would have had
 * (docs/MODEL.md, "Event engine internals").
 */

#ifndef VP_SIM_SIMULATOR_HH
#define VP_SIM_SIMULATOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hh"

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
 * Token of a parked poll chain (Simulator::park). Like EventHandle it
 * names (slot, generation), so a handle to an ended chain goes stale.
 */
struct PollChain
{
    static constexpr std::uint32_t kNone = 0xffffffffu;
    std::uint32_t idx = kNone;
    std::uint32_t gen = 0;

    bool
    operator==(const PollChain& o) const
    {
        return idx == o.idx && gen == o.gen;
    }
};

/**
 * Receives the polls a parked chain elides: how many fired and the sum
 * of the backoffs they waited. Reported no later than the end of the
 * run slice they fired in, or when the chain ends.
 */
class PollSink
{
  public:
    virtual void elidedPolls(int tag, std::uint64_t polls, double idle) = 0;

  protected:
    ~PollSink() = default;
};

/**
 * Deterministic event-driven simulator with a virtual cycle clock.
 */
class Simulator
{
  public:
    Simulator();

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

    /** Cancel a previously scheduled event; no-op if already run. */
    void cancel(EventHandle h);

    /** @name Parked poll chains
     *
     * A check that found nothing parks its poll chain: the next poll
     * is due @p backoff cycles from now, and each poll that finds
     * nothing waits min(1.5 × its backoff, cap) for the next. The
     * polls stay virtual. They count in eventsRun(), reach the
     * chain's PollSink, and move the clock at the end of a slice, but
     * nothing is dispatched until wake() materializes the next poll
     * that has not fired under the exact (time, sequence) key it
     * would have had (docs/MODEL.md, "Event engine
     * internals"). Origin order ranks chains on one schedule (first
     * backoff and cap): the first chain parked sets it, and a chain
     * on another one has each of its polls dispatched.
     * @{ */

    /**
     * Park a chain after a failed check at now(). Passing the handle
     * of the chain whose woken poll is running continues that chain;
     * any other handle starts a new one. @p onWake runs when the
     * chain's woken poll fires.
     */
    PollChain park(PollChain chain, Tick backoff, Tick cap,
                   PollSink* sink, int tag, EventFn onWake);

    /** Dispatch the next of @p chain's polls that has not fired:
     *  every one before the current position has. No-op for a woken
     *  or stale chain. */
    void wake(PollChain chain);

    /** Of @p n chains, the one whose next poll comes first (a woken
     *  chain at its wake); stale handles are skipped. */
    PollChain earliest(const PollChain* chains, std::size_t n);

    /** End @p chain: its polls before the current position count,
     *  its wake, if any, never fires. No-op when stale. */
    void cancel(PollChain chain);

    /** Backoff of @p chain's next poll; during its woken poll, the
     *  backoff that poll uses. */
    Tick backoff(PollChain chain) const;

    /**
     * Register @p fn to run at the end of every dispatched event and
     * at the start of every runUntil: wake triggers read the state a
     * whole dispatch (or the code between slices) left behind.
     * @return an id for removeWakeHook.
     */
    int addWakeHook(std::function<void()> fn);
    void removeWakeHook(int id);

    /** @} */

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
     * @p timeLimit, or @p eventLimit events have fired. Parked polls
     * are events: a slice with only parked chains left is not
     * drained and runs through their polls to its limits.
     * @return true when the queue drained within the limits (the
     * auto-tuner's timeout-execute primitive).
     */
    bool runUntil(Tick timeLimit, std::uint64_t eventLimit);

    /**
     * Advance the clock to @p t without dispatching anything. Only
     * legal when no pending event (parked polls included) fires
     * before @p t; the Supervisor uses it to hop a serving run's
     * clock to its next epoch boundary.
     */
    void advanceTo(Tick t);

    /** Number of events fired so far, elided polls included. */
    std::uint64_t eventsRun() const { return eventsRun_; }

    /** Number of events actually dispatched so far (eventsRun()
     *  minus the elided polls). */
    std::uint64_t dispatched() const { return dispatched_; }

    /** Number of events currently pending; each parked chain has one
     *  pending poll. */
    std::size_t
    pendingEvents() const
    {
        return heap_.size() + parked_;
    }

  private:
    static constexpr std::uint32_t kNone = 0xffffffffu;

    /** One slab slot: either a pending event or a freelist link. */
    struct Slot
    {
        EventFn fn;
        /** Bumped on recycle; stale EventHandles mismatch. */
        std::uint32_t gen = 0;
        /** Position in heap_, or kNone. */
        std::uint32_t heapPos = kNone;
        /** Next free slot when on the freelist. */
        std::uint32_t nextFree = kNone;
        /** The chain this event wakes, or kNone. */
        std::uint32_t chain = kNone;
    };

    /**
     * One heap element. The ordering key (when, seq) lives here, not
     * in the slab, so sift comparisons stay within the contiguous
     * heap array instead of chasing slab indices. seq and slot are
     * packed into one word to keep the entry at 16 bytes (a 4-ary
     * node's children span exactly one cache line). Real sequence
     * numbers are even and unique; a wake's odd number can repeat
     * only on another wake, so only equal times with equal odd
     * numbers need the chains (firesBefore).
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

        std::uint64_t seq() const { return seqSlot >> kSlotBits; }
    };

    /** Low bits of HeapEntry::seqSlot hold the slab slot. */
    static constexpr std::uint64_t kSlotBits = 20;
    static constexpr std::uint64_t kSlotMask =
        (std::uint64_t(1) << kSlotBits) - 1;

    /**
     * One position in the event stream. Dispatched events log (time,
     * sequence number, real numbers drawn by the end of the event); a
     * wake also logs its chain's origin. The last entry is the current
     * position, and draws made outside a dispatch count in it. Elided
     * polls are not logged: those a run counted past the position
     * precede no parked cursor, so no walk needs them.
     */
    struct LogEntry
    {
        Tick when;
        std::uint64_t key;
        std::uint64_t drawn;
        Tick t0;
        std::uint64_t n0;
    };

    /** Key of a position after all of its tick. */
    static constexpr std::uint64_t kAfterTick = ~std::uint64_t(0);

    enum class ChainState : std::uint8_t
    {
        Free,
        /** Polls virtual; the cursor is the next one not counted. */
        Parked,
        /** The cursor poll is on the heap. */
        Woken,
        /** The woken poll is running. */
        Awake,
    };

    /**
     * A poll chain. Chains whose polls share a tick fire in origin
     * order, (t0, n0): the check that started the chain and the
     * number its first poll drew. (The chain whose origin is earlier
     * reached the tick by a longer backoff, so its previous poll
     * fired first and drew first.)
     */
    struct Chain
    {
        Tick t0 = 0.0;
        std::uint64_t n0 = 0;
        /** Cursor: time, backoff and sequence number of the next
         *  poll not yet counted. */
        Tick when = 0.0;
        Tick backoff = 0.0;
        Tick cap = 0.0;
        std::uint64_t key = 0;
        /** First log entry (absolute index) not known to precede
         *  the cursor. */
        std::uint64_t logIdx = 0;
        PollSink* sink = nullptr;
        int tag = 0;
        /** Polls counted and not yet reported to the sink. */
        std::uint64_t polls = 0;
        Tick idle = 0.0;
        EventFn onWake;
        std::uint32_t gen = 0;
        /** Wake slot while Woken. */
        std::uint32_t slot = kNone;
        /** Index in live_ while Parked or Woken; next free chain
         *  while Free. */
        std::uint32_t link = kNone;
        ChainState state = ChainState::Free;
        /** Off the simulator's schedule: every poll is woken. */
        bool eager = false;
    };

    /** Heap arity: 4-ary halves the depth vs. binary and keeps a
     *  node's children in exactly one cache line. */
    static constexpr std::uint32_t kArity = 4;

    bool
    firesBefore(const HeapEntry& a, const HeapEntry& b) const
    {
        if (a.when != b.when)
            return a.when < b.when;
        if ((a.seqSlot ^ b.seqSlot) >> kSlotBits)
            return a.seqSlot < b.seqSlot;
        return originBefore(chains_[slab_[a.slot()].chain],
                            chains_[slab_[b.slot()].chain]);
    }

    static bool
    originBefore(const Chain& a, const Chain& b)
    {
        return a.t0 < b.t0 || (a.t0 == b.t0 && a.n0 < b.n0);
    }

    /** Stream order of two chains' cursor polls (one schedule). */
    static bool
    pollBefore(const Chain& a, const Chain& b)
    {
        return a.when < b.when
            || (a.when == b.when && originBefore(a, b));
    }

    /** True when position @p e lies before @p c's cursor poll. */
    static bool
    entryBefore(const LogEntry& e, const Chain& c)
    {
        if (e.when != c.when)
            return e.when < c.when;
        if (e.key != c.key)
            return e.key < c.key;
        return e.t0 < c.t0 || (e.t0 == c.t0 && e.n0 < c.n0);
    }

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t idx);

    /** Draw the next real sequence number (2n). */
    std::uint64_t draw();
    void heapPush(HeapEntry e);
    void heapRemove(std::uint32_t pos);
    void siftUp(std::uint32_t pos);
    void siftDown(std::uint32_t pos);

    /** Pop and fire the heap top. */
    void dispatch();
    void runHooks();

    Chain* live(PollChain h);
    void freeChain(std::uint32_t idx);
    void unlinkLive(Chain& c);
    void report(Chain& c);

    /** Move @p c's log index past the entries before its cursor
     *  poll. @return the real numbers drawn before that poll. */
    std::uint64_t drawnBefore(Chain& c);

    /** Note an elided poll at @p when for the clock. */
    void notePoll(Tick when);

    /** Count @p c's cursor poll as fired and move to the next one. */
    void step(Chain& c);

    /** Count @p c's polls that precede @p pos and report them.
     *  @return how many. */
    std::uint64_t settle(Chain& c, const LogEntry& pos);

    /** settle() every parked chain; refreshes floor_. */
    std::uint64_t settleAll(const LogEntry& pos);

    /** Upper bound on the uncounted parked polls due by @p t. */
    std::uint64_t pollBound(Tick t) const;

    /**
     * Fire the parked polls that precede @p target, in stream order,
     * at most @p budget of them; @p fired counts them. Polls behind
     * the current position may be among them: each dispatch left the
     * budget room for every poll due by its time. @return false when
     * the budget ran out first.
     */
    bool fireBefore(const LogEntry& target, std::uint64_t budget,
                    std::uint64_t& fired);

    /** Drop log entries no parked chain can still query. */
    void compactLog();

    Tick now_ = 0.0;
    /** Real sequence numbers drawn so far. */
    std::uint64_t drawn_ = 0;
    std::uint64_t eventsRun_ = 0;
    std::uint64_t dispatched_ = 0;
    std::vector<Slot> slab_;
    /**
     * 4-ary min-heap ordered by (when, seq). Cancelled events are
     * removed eagerly via the slab's heap-position back-pointer;
     * keeping dead entries around (lazy deletion) measured slower —
     * every tombstone eventually costs a full root pop plus a slab
     * probe, and the extra depth taxes all sifts.
     */
    std::vector<HeapEntry> heap_;
    std::uint32_t freeHead_ = kNone;

    std::vector<Chain> chains_;
    /** Parked and woken chains. */
    std::vector<std::uint32_t> live_;
    std::uint32_t freeChain_ = kNone;
    /** Parked chains (each has one pending poll). */
    std::size_t parked_ = 0;
    /** Lower bound on every parked cursor's time. */
    Tick floor_ = 0.0;
    /** The schedule origin order ranks: first backoff and cap. */
    Tick first_ = 0.0;
    Tick cap_ = 0.0;
    /** Latest elided poll counted in the current runUntil. */
    Tick lastPoll_ = 0.0;
    bool polled_ = false;

    /** Event-stream log; log_[i] has absolute index logBase_ + i. */
    std::vector<LogEntry> log_;
    std::uint64_t logBase_ = 0;
    std::size_t compactAt_ = 0;

    std::vector<std::pair<int, std::function<void()>>> hooks_;
    int nextHook_ = 0;
};

/**
 * The parked polls of one stage set, and its wake order: while the
 * set has work, its earliest parked poll is dispatched. A push wakes
 * that one poll, not every parked block; when it fires and takes its
 * block off the set, the next earliest is woken if work remains.
 * Since only a push makes a set's queues non-empty, no elided poll
 * could have found work.
 */
class PollWaiters
{
  public:
    /** @p chain parked (or continued after its woken poll). */
    void
    add(PollChain chain)
    {
        chains_.push_back(chain);
        dirty_ = true;
        allWoken_ = false;
    }

    /** @p chain's woken poll is running, or it was cancelled. */
    void remove(PollChain chain);

    bool empty() const { return chains_.empty(); }

    /**
     * Re-establish the wake order on the state at the end of a
     * dispatch: with @p all, wake every parked poll (the set retires
     * or retreats); else, with @p work, wake the earliest.
     */
    void settle(Simulator& sim, bool work, bool all);

  private:
    std::vector<PollChain> chains_;
    /** Chains joined or left since the earliest was woken. */
    bool dirty_ = false;
    bool allWoken_ = false;
};

} // namespace vp

#endif // VP_SIM_SIMULATOR_HH
