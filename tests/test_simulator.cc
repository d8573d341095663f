/**
 * @file
 * Unit tests for the discrete-event simulation core.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/simulator.hh"

using namespace vp;

TEST(Simulator, StartsAtTimeZero)
{
    Simulator sim;
    EXPECT_DOUBLE_EQ(sim.now(), 0.0);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.at(30.0, [&] { order.push_back(3); });
    sim.at(10.0, [&] { order.push_back(1); });
    sim.at(20.0, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(sim.now(), 30.0);
}

TEST(Simulator, SameTimeEventsRunInScheduleOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.at(5.0, [&] { order.push_back(1); });
    sim.at(5.0, [&] { order.push_back(2); });
    sim.at(5.0, [&] { order.push_back(3); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, AfterSchedulesRelativeToNow)
{
    Simulator sim;
    double seen = -1.0;
    sim.at(100.0, [&] {
        sim.after(50.0, [&] { seen = sim.now(); });
    });
    sim.run();
    EXPECT_DOUBLE_EQ(seen, 150.0);
}

TEST(Simulator, CancelPreventsExecution)
{
    Simulator sim;
    bool ran = false;
    EventHandle h = sim.at(10.0, [&] { ran = true; });
    sim.cancel(h);
    sim.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(sim.eventsRun(), 0u);
}

TEST(Simulator, CancelAfterRunIsNoop)
{
    Simulator sim;
    bool ran = false;
    EventHandle h = sim.at(10.0, [&] { ran = true; });
    sim.run();
    EXPECT_TRUE(ran);
    sim.cancel(h); // must not crash or corrupt
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, EventsCanScheduleMoreEvents)
{
    Simulator sim;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100)
            sim.after(1.0, chain);
    };
    sim.after(1.0, chain);
    sim.run();
    EXPECT_EQ(depth, 100);
    EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, SchedulingInPastThrows)
{
    Simulator sim;
    sim.at(100.0, [&] {
        EXPECT_THROW(sim.at(50.0, [] {}), PanicError);
    });
    sim.run();
}

TEST(Simulator, NegativeDelayThrows)
{
    Simulator sim;
    EXPECT_THROW(sim.after(-1.0, [] {}), PanicError);
}

TEST(Simulator, RunBoundedDetectsRunaway)
{
    Simulator sim;
    std::function<void()> forever = [&] { sim.after(1.0, forever); };
    sim.after(1.0, forever);
    EXPECT_FALSE(sim.runBounded(1000));
    EXPECT_GE(sim.eventsRun(), 1000u);
}

TEST(Simulator, RunBoundedReturnsTrueOnDrain)
{
    Simulator sim;
    sim.after(1.0, [] {});
    sim.after(2.0, [] {});
    EXPECT_TRUE(sim.runBounded(1000));
}

TEST(Simulator, PendingEventsTracksCancellations)
{
    Simulator sim;
    EventHandle a = sim.at(1.0, [] {});
    sim.at(2.0, [] {});
    EXPECT_EQ(sim.pendingEvents(), 2u);
    sim.cancel(a);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.cancel(a); // double-cancel is a no-op
    EXPECT_EQ(sim.pendingEvents(), 1u);
}

TEST(Simulator, StaleHandleAfterSlotRecycleIsNoop)
{
    Simulator sim;
    // A fires, freeing its slab slot; B then reuses it. Cancelling
    // through the stale handle to A must not kill B (generation
    // counters make the old handle mismatch).
    bool ranB = false;
    EventHandle a = sim.at(1.0, [] {});
    sim.run();
    sim.at(2.0, [&] { ranB = true; });
    sim.cancel(a);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.run();
    EXPECT_TRUE(ranB);
}

TEST(Simulator, StaleHandleAfterCancelAndReuseIsNoop)
{
    Simulator sim;
    // Same as above but the slot is recycled through cancellation
    // rather than dispatch.
    bool ranB = false;
    EventHandle a = sim.at(1.0, [] {});
    sim.cancel(a);
    EventHandle b = sim.at(2.0, [&] { ranB = true; });
    sim.cancel(a); // stale: must not touch b's slot
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.run();
    EXPECT_TRUE(ranB);
    sim.cancel(b); // post-run: no-op
}

TEST(Simulator, SlotsAreRecycledNotLeaked)
{
    Simulator sim;
    // Schedule/fire far more events than are ever pending at once;
    // the slab must stay at the high-water mark of pending events,
    // which PendingEventsTracksCancellations pins elsewhere. Here we
    // just confirm a long run with a small pending set works and
    // stays deterministic.
    int fired = 0;
    std::function<void()> tick = [&] {
        if (++fired < 10000)
            sim.after(1.0, tick);
    };
    sim.after(1.0, tick);
    sim.run();
    EXPECT_EQ(fired, 10000);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, LargeCaptureFallsBackToHeap)
{
    Simulator sim;
    // A capture bigger than EventFn's inline buffer must still work
    // (heap fallback path).
    std::array<double, 32> payload{};
    payload[31] = 42.0;
    double seen = 0.0;
    sim.at(1.0, [payload, &seen] { seen = payload[31]; });
    sim.run();
    EXPECT_DOUBLE_EQ(seen, 42.0);
}

TEST(Simulator, NanDelayThrows)
{
    Simulator sim;
    EXPECT_THROW(
        sim.after(std::numeric_limits<double>::quiet_NaN(), [] {}),
        PanicError);
    EXPECT_THROW(
        sim.at(std::numeric_limits<double>::infinity(), [] {}),
        PanicError);
}

TEST(Simulator, SchedulingAtCurrentTimeRuns)
{
    Simulator sim;
    bool ran = false;
    sim.at(100.0, [&] { sim.at(sim.now(), [&] { ran = true; }); });
    sim.run();
    EXPECT_TRUE(ran);
    EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, CancelHeavyWorkloadStaysConsistent)
{
    // Interleaved schedule/cancel with slot reuse: pendingEvents and
    // the dispatch order must stay exact throughout.
    Simulator sim;
    std::vector<int> fired;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 100; ++i)
        handles.push_back(
            sim.at(10.0 + i, [&fired, i] { fired.push_back(i); }));
    for (int i = 0; i < 100; i += 2)
        sim.cancel(handles[i]);
    EXPECT_EQ(sim.pendingEvents(), 50u);
    // Recycled slots host new events; old handles must stay stale.
    for (int i = 100; i < 150; ++i)
        handles.push_back(
            sim.at(5.0 + (i % 7), [&fired, i] { fired.push_back(i); }));
    for (int i = 0; i < 100; i += 2)
        sim.cancel(handles[i]); // all stale, all no-ops
    EXPECT_EQ(sim.pendingEvents(), 100u);
    sim.run();
    EXPECT_EQ(fired.size(), 100u);
    for (int i = 1; i < 100; i += 2)
        EXPECT_NE(std::find(fired.begin(), fired.end(), i),
                  fired.end());
}

TEST(EventFn, MoveTransfersCallable)
{
    int calls = 0;
    EventFn a = [&calls] { ++calls; };
    EventFn b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(calls, 1);
    a = std::move(b);
    a();
    EXPECT_EQ(calls, 2);
}

TEST(EventFn, WrapsStdFunction)
{
    // std::function is not trivially copyable: exercises the
    // non-trivial inline relocation path.
    int calls = 0;
    std::function<void()> f = [&calls] { ++calls; };
    EventFn e = f;
    EventFn moved = std::move(e);
    moved();
    EXPECT_EQ(calls, 1);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    auto trace = [] {
        Simulator sim;
        std::vector<double> times;
        for (int i = 0; i < 50; ++i) {
            sim.at(static_cast<double>((i * 37) % 17),
                   [&, i] { times.push_back(sim.now() + i); });
        }
        sim.run();
        return times;
    };
    EXPECT_EQ(trace(), trace());
}

TEST(Simulator, ParkedChainCountsItsPollsWithoutDispatching)
{
    // A chain parked at 0 with nothing to wake it: its polls at 150,
    // 375, 712.5, 1162.5, 1612.5, ... all count, none is dispatched.
    struct Sink : PollSink
    {
        std::uint64_t polls = 0;
        double idle = 0.0;
        void
        elidedPolls(int, std::uint64_t n, double i) override
        {
            polls += n;
            idle += i;
        }
    } sink;
    Simulator sim;
    bool woke = false;
    sim.at(0.0, [&] {
        sim.park(PollChain(), 150.0, 450.0, &sink, 0,
                 [&] { woke = true; });
    });
    // A parked chain is a pending poll: the slice is not drained.
    EXPECT_FALSE(sim.runUntil(0.0, 10));
    EXPECT_FALSE(sim.runUntil(1700.0, 100));
    EXPECT_FALSE(woke);
    EXPECT_EQ(sink.polls, 5u);
    EXPECT_DOUBLE_EQ(sink.idle, 225.0 + 337.5 + 450.0 * 3);
    EXPECT_EQ(sim.eventsRun(), 6u);
    EXPECT_EQ(sim.dispatched(), 1u);
    EXPECT_DOUBLE_EQ(sim.now(), 1612.5);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    // The event limit lands on the third poll after 1612.5.
    EXPECT_FALSE(sim.runBounded(3));
    EXPECT_DOUBLE_EQ(sim.now(), 2962.5);
    EXPECT_EQ(sink.polls, 8u);
}

TEST(Simulator, WakeTakesThePollsKeyAmongItsTick)
{
    // Chain polls at 150 and 375. An event drawn before the 150 poll
    // fired sorts before the 375 wake; one drawn after it, after.
    Simulator sim;
    std::vector<char> order;
    PollChain chain;
    sim.at(0.0, [&] {
        chain = sim.park(PollChain(), 150.0, 450.0, nullptr, 0,
                         [&] { order.push_back('W'); });
        sim.at(375.0, [&] { order.push_back('A'); });
    });
    sim.at(200.0, [&] {
        sim.at(375.0, [&] { order.push_back('B'); });
        sim.wake(chain);
    });
    EXPECT_TRUE(sim.runUntil(1e9, 100));
    EXPECT_EQ(order, (std::vector<char>{'A', 'W', 'B'}));
    // Polls: 150 elided, 375 dispatched.
    EXPECT_EQ(sim.eventsRun(), 6u);
    EXPECT_EQ(sim.dispatched(), 5u);
}

namespace {

/** splitmix64: decisions keyed by (seed, event id), not by order. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/**
 * Reference engine for the differential test: a flat list of pending
 * events, dispatched by a linear scan for the least (time, schedule
 * order). Every poll is one of its events.
 */
class RefSim
{
  public:
    using Handle = std::size_t;

    Tick now() const { return now_; }
    std::uint64_t eventsRun() const { return run_; }
    std::size_t pendingEvents() const { return pending_.size(); }

    Handle
    at(Tick when, std::function<void()> fn)
    {
        evs_.push_back(Ev{when > now_ ? when : now_, std::move(fn)});
        pending_.push_back(evs_.size() - 1);
        return evs_.size() - 1;
    }

    Handle
    after(Tick delay, std::function<void()> fn)
    {
        return at(now_ + delay, std::move(fn));
    }

    void
    cancel(Handle h)
    {
        auto it = std::find(pending_.begin(), pending_.end(), h);
        if (it != pending_.end())
            pending_.erase(it);
    }

    /** Index into pending_ of the next event, or -1. */
    int
    next() const
    {
        int best = -1;
        for (std::size_t i = 0; i < pending_.size(); ++i) {
            // Schedule order is the handle order.
            const Ev& e = evs_[pending_[i]];
            if (best < 0 || e.when < evs_[pending_[best]].when
                || (e.when == evs_[pending_[best]].when
                    && pending_[i] < pending_[best]))
                best = static_cast<int>(i);
        }
        return best;
    }

    /** Time of the next event (infinity when none). */
    Tick
    nextTime() const
    {
        int i = next();
        return i < 0 ? std::numeric_limits<Tick>::infinity()
                     : evs_[pending_[i]].when;
    }

    bool
    runUntil(Tick timeLimit, std::uint64_t eventLimit)
    {
        std::uint64_t start = run_;
        for (;;) {
            int i = next();
            if (i < 0)
                return true;
            if (run_ - start >= eventLimit
                || evs_[pending_[i]].when > timeLimit)
                return false;
            std::size_t h = pending_[i];
            pending_.erase(pending_.begin() + i);
            now_ = evs_[h].when;
            ++run_;
            std::function<void()> fn = std::move(evs_[h].fn);
            fn();
        }
    }

    void
    advanceTo(Tick t)
    {
        if (t > now_)
            now_ = t;
    }

  private:
    struct Ev
    {
        Tick when;
        std::function<void()> fn;
    };
    std::vector<Ev> evs_;
    std::vector<std::size_t> pending_;
    Tick now_ = 0.0;
    std::uint64_t run_ = 0;
};

constexpr int kSets = 3;

/** First backoff of set @p s's blocks: the last set polls on another
 *  schedule, whose chains the engine dispatches poll by poll. */
Tick
pollFor(int s)
{
    return s + 1 < kSets ? 150.0 : 112.5;
}

/** Backoff cap of set @p s's blocks. */
Tick
capFor(int s)
{
    return 3.0 * pollFor(s);
}
/** Fired-log ids of block actions: kBlockBase + 4 × block + action. */
constexpr std::size_t kBlockBase = std::size_t(1) << 40;

/** One persistent block of the model: polls its set's queue. */
struct Block
{
    int set = 0;
    bool alive = true;
    /** Waiting for its next poll. */
    bool parked = false;
    /** Where it last parked, and its first poll's backoff since. */
    Tick parkedAt = 0.0;
    Tick backoff = 0.0;
    std::uint64_t takes = 0;
    std::uint64_t polls = 0;
    PollChain chain;
    RefSim::Handle refPoll = 0;
};

/** What driveModel saw: fired (id, time) and counters after every
 *  slice. */
struct EngineLog
{
    std::vector<std::pair<std::size_t, Tick>> fired;
    std::vector<std::uint64_t> eventsRun;
    std::vector<std::size_t> pending;
    std::vector<Tick> now;
    std::vector<bool> drained;
    std::vector<std::vector<std::uint64_t>> polls;
    std::uint64_t takes = 0;
};

/** Reference polling: every poll is a real event. */
struct RefPolls
{
    RefSim& sim;

    template <typename Check>
    void
    park(Block& b, std::size_t, Tick backoff, Check check)
    {
        Tick cap = capFor(b.set);
        b.refPoll = sim.after(backoff, [check, backoff, cap] {
            check(std::min(backoff * 1.5, cap));
        });
    }

    void evict(Block& b) { sim.cancel(b.refPoll); }

    /** No wake triggers: nothing is parked. */
    template <typename Work, typename Drained>
    void
    hook(Work, Drained)
    {
    }
};

/** Parked chains under the runtime's wake order (PollWaiters). */
struct ChainPolls : PollSink
{
    Simulator& sim;
    std::deque<Block>& blocks;
    PollWaiters waiters[kSets];
    /** Woken polls that found neither work nor a drained set, on
     *  the engine's schedule: the first backoff parked. A chain on
     *  another one is eager: the engine wakes it as soon as it parks,
     *  and waking a woken chain does nothing, so PollWaiters cannot
     *  herd it. Its idle wakes are its own polls, each dispatched,
     *  not wakes for work. */
    std::uint64_t idleWakes = 0;
    Tick schedule = 0.0;
    const Block* waking = nullptr;

    ChainPolls(Simulator& s, std::deque<Block>& b) : sim(s), blocks(b) {}

    void
    elidedPolls(int tag, std::uint64_t n, double) override
    {
        blocks[static_cast<std::size_t>(tag)].polls += n;
    }

    template <typename Check>
    void
    park(Block& b, std::size_t id, Tick backoff, Check check)
    {
        if (schedule == 0.0)
            schedule = backoff;
        if (waking == &b && pollFor(b.set) == schedule)
            ++idleWakes;
        b.chain = sim.park(b.chain, backoff, capFor(b.set), this,
                           static_cast<int>(id), [this, &b, check] {
                               waiters[b.set].remove(b.chain);
                               waking = &b;
                               check(sim.backoff(b.chain));
                               waking = nullptr;
                           });
        waiters[b.set].add(b.chain);
    }

    void
    evict(Block& b)
    {
        sim.cancel(b.chain);
        waiters[b.set].remove(b.chain);
    }

    /** The wake triggers, as GroupsRunner::settleWaiters: a set with
     *  work wakes its earliest parked poll, a drained one all. */
    template <typename Work, typename Drained>
    void
    hook(Work work, Drained drained)
    {
        sim.addWakeHook([this, work, drained] {
            for (int s = 0; s < kSets; ++s) {
                bool all = drained(s);
                waiters[s].settle(sim, !all && work(s), all);
            }
        });
    }
};

/**
 * Drive engine @p sim through @p polls with a random mix keyed by
 * @p seed. Events scheduled through at() and after() push work into
 * three stage sets (set s feeds set s + 1), launch blocks (several at
 * once, so chains share one grid), evict parked blocks, schedule
 * children and cancel events. Blocks take one item at a time and park
 * when their set is empty; a set drains once the mix is closed and
 * nothing upstream is queued or busy, and its blocks then retire.
 * Delays are mostly multiples of 18.75, like the poll grids, so
 * pushes land exactly on grid points, and some pushes are placed on a
 * parked block's own polls past the ramp; the last set polls on a
 * second schedule. runUntil slices with time and event limits
 * alternate with advanceTo hops; one slice in six is a quiet stretch
 * of many cap periods, and odd seeds start just below a power of two
 * above 2^33. With @p lone, a single block and two slices replace the
 * mix: the second slice's event limit ends right after a real event,
 * with the block's poll before it fired and its next one due.
 * @p hop maps a proposed target to a legal one.
 */
template <typename Sim, typename Polls, typename Hop>
EngineLog
driveModel(Sim& sim, Polls& polls, std::deque<Block>& blocks,
           std::uint64_t seed, bool lone, Hop hop)
{
    using Handle = decltype(sim.after(0.0, [] {}));
    EngineLog log;
    std::vector<Handle> handles;
    int items[kSets] = {};
    int busy[kSets] = {};
    bool closed = false;

    auto drained = [&](int s) {
        if (!closed)
            return false;
        for (int t = 0; t <= s; ++t)
            if (items[t] > 0 || busy[t] > 0)
                return false;
        return true;
    };
    polls.hook([&](int s) { return items[s] > 0; }, drained);

    std::function<void(std::size_t, Tick)> check;
    check = [&](std::size_t bi, Tick backoff) {
        Block& b = blocks[bi];
        b.parked = false;
        int s = b.set;
        if (items[s] > 0) {
            --items[s];
            ++busy[s];
            ++log.takes;
            log.fired.emplace_back(kBlockBase + 4 * bi, sim.now());
            std::uint64_t h = mix(seed ^ mix(kBlockBase + 4096 * bi
                                             + b.takes++));
            Tick d = static_cast<Tick>(h % 16) * 18.75 + 10.0;
            sim.after(d, [&, bi, h] {
                Block& done = blocks[bi];
                log.fired.emplace_back(kBlockBase + 4 * bi + 2,
                                       sim.now());
                --busy[done.set];
                if (done.set + 1 < kSets && (h >> 8) % 3 != 0)
                    ++items[done.set + 1];
                check(bi, pollFor(done.set));
            });
            return;
        }
        if (drained(s)) {
            b.alive = false;
            log.fired.emplace_back(kBlockBase + 4 * bi + 1, sim.now());
            return;
        }
        ++b.polls;
        b.parked = true;
        b.parkedAt = sim.now();
        b.backoff = backoff;
        polls.park(b, bi, backoff,
                   [&check, bi](Tick next) { check(bi, next); });
    };
    auto launch = [&](int set) {
        blocks.emplace_back();
        blocks.back().set = set;
        check(blocks.size() - 1, pollFor(set));
    };

    // A parked block picked by @p h, or none.
    auto pickParked = [&](std::uint64_t h) -> Block* {
        std::vector<std::size_t> parked;
        for (std::size_t i = 0; i < blocks.size(); ++i)
            if (blocks[i].alive && blocks[i].parked)
                parked.push_back(i);
        return parked.empty() ? nullptr
                              : &blocks[parked[h % parked.size()]];
    };
    // An item for @p b's set, exactly on one of its polls past the
    // ramp: the first one after now, then @p extra more. Repeated
    // addition, as both engines compute each poll, so the push ties a
    // poll at the end of a log gap. (The reference re-parks at every
    // poll, the engine only at real checks; both walk the same grid.)
    auto gridPush = [&](const Block& b, std::uint64_t extra) {
        Tick t = b.parkedAt;
        Tick d = b.backoff;
        auto nextPoll = [&] {
            t += d;
            d = std::min(d * 1.5, capFor(b.set));
        };
        do
            nextPoll();
        while (t <= sim.now() || d != capFor(b.set));
        for (; extra > 0; --extra)
            nextPoll();
        std::size_t id = handles.size();
        int set = b.set;
        handles.push_back(sim.at(t, [&, id, set] {
            log.fired.emplace_back(id, sim.now());
            if (!closed)
                ++items[set];
        }));
    };

    auto delayFor = [](std::uint64_t h) -> Tick {
        if (h % 5 == 0)
            return static_cast<Tick>(h >> 40 & 0xffff) / 7.0;
        return static_cast<Tick>((h >> 8) % 25) * 18.75;
    };
    std::function<void(std::uint64_t)> schedule;
    auto fire = [&](std::size_t id) {
        log.fired.emplace_back(id, sim.now());
        std::uint64_t h = mix(seed ^ mix(id));
        if (!closed && (h >> 24) % 3 != 0)
            items[(h >> 28) % kSets] += 1 + static_cast<int>(h >> 30 & 1);
        if ((h >> 32) % 9 == 0) {
            int set = static_cast<int>((h >> 36) % kSets);
            for (std::uint64_t i = 0; i <= (h >> 38) % 3; ++i)
                launch(set);
        }
        if ((h >> 42) % 7 == 0) {
            if (Block* b = pickParked(h >> 46)) {
                polls.evict(*b);
                b->alive = false;
                b->parked = false;
            }
        }
        if ((h >> 50) % 4 == 0) {
            if (Block* b = pickParked(h >> 52))
                gridPush(*b, (h >> 56) % 3);
        }
        // 0, 1 or 2 children (0.8 on average), then maybe a cancel.
        int children = static_cast<int>(h % 10 < 4 ? 0 : h % 10 < 8 ? 1 : 2);
        for (int c = 0; c < children; ++c)
            schedule(mix(h + static_cast<std::uint64_t>(c) + 1));
        if ((h >> 16) % 4 == 0 && !handles.empty())
            sim.cancel(handles[(h >> 20) % handles.size()]);
    };
    schedule = [&](std::uint64_t h) {
        std::size_t id = handles.size();
        auto fn = [&fire, id] { fire(id); };
        if (h % 2 == 0)
            handles.push_back(sim.at(sim.now() + delayFor(h >> 2), fn));
        else
            handles.push_back(sim.after(delayFor(h >> 2), fn));
    };

    auto record = [&](bool drainedNow) {
        log.drained.push_back(drainedNow);
        log.eventsRun.push_back(sim.eventsRun());
        log.pending.push_back(sim.pendingEvents());
        log.now.push_back(sim.now());
        std::vector<std::uint64_t> p;
        for (const Block& b : blocks)
            p.push_back(b.polls);
        log.polls.push_back(std::move(p));
    };

    // Odd seeds start at a full-precision time up to 2^17 cycles below
    // a power of two from 2^34 to 2^39: chains cross it, and repeated
    // addition rounds where the spacing of doubles doubles.
    if (!lone && seed % 2 == 1) {
        std::uint64_t o = mix(seed ^ 0x5eedull);
        sim.advanceTo(hop(std::ldexp(1.0, 34 + static_cast<int>(o % 6))
                          - std::ldexp(static_cast<Tick>(o >> 11), -36)));
    }
    // A lone parked block polls at 150 and 375; an event comes at 200.
    // A slice limited to two events ends right after that event: the
    // poll at 150 takes the other one, and the poll at 375, due by the
    // time limit, does not fire. The engine dispatches the event with
    // the poll at 150 still uncounted, so the polls it then fires in
    // stream order, up to the limit, start behind the event.
    if (lone) {
        sim.at(0.0, [&] {
            log.fired.emplace_back(0, sim.now());
            launch(0);
        });
        sim.at(200.0, [&] { log.fired.emplace_back(1, sim.now()); });
        record(sim.runUntil(100.0, ~0ull));
        record(sim.runUntil(1000.0, 2));
        closed = true;
    }
    std::uint64_t r = mix(seed);
    for (int step = 0; step < (lone ? 0 : 60); ++step) {
        r = mix(r);
        for (std::uint64_t i = 0; i < r % 12; ++i)
            schedule(mix(r + i));
        r = mix(r);
        for (std::uint64_t i = 0; i < r % 3 && !handles.empty(); ++i)
            sim.cancel(handles[mix(r + i) % handles.size()]);
        if (step == 40)
            closed = true;
        r = mix(r);
        if (r % 4 == 0) {
            sim.advanceTo(
                hop(sim.now() + static_cast<Tick>(r >> 8 & 0xff)));
        }
        r = mix(r);
        // A push on a parked block's poll up to 40 polls ahead: it may
        // end a quiet stretch.
        if (r % 5 == 0) {
            if (Block* b = pickParked(r >> 8))
                gridPush(*b, (r >> 16) % 40);
        }
        r = mix(r);
        Tick limit = sim.now() + static_cast<Tick>((r >> 4) % 1200);
        // One slice in six is a quiet stretch of many cap periods,
        // with an event limit (if any) that falls among its polls.
        bool quiet = (r >> 12) % 6 == 0;
        if (quiet)
            limit += 450.0 * static_cast<Tick>(10 + (r >> 16) % 50);
        std::uint64_t events = (r >> 24) % 3 == 0
            ? ~0ull
            : (r >> 32) % (quiet ? 400 : 40);
        record(sim.runUntil(limit, events));
    }
    record(sim.runUntil(1e18, ~0ull));
    return log;
}

} // namespace

TEST(Simulator, ParkedChainsMatchAReferenceOrderEngine)
{
    // Differential property test: with parked chains and the wake
    // order, the engine must fire what a flat (time, schedule order)
    // scan that dispatches every poll fires, in the same order, with
    // the same counters after every run slice.
    std::uint64_t fired = 0, takes = 0, elided = 0;
    // Seeds 0-399 run the random mix; run 400 is the lone block.
    for (std::uint64_t seed = 0; seed <= 400; ++seed) {
        bool lone = seed == 400;
        // The reference picks each advanceTo target; the elided
        // engine replays them.
        RefSim ref;
        std::deque<Block> refBlocks;
        RefPolls refPolls{ref};
        std::vector<Tick> hops;
        EngineLog want = driveModel(
            ref, refPolls, refBlocks, seed, lone,
            [&](Tick proposed) {
                hops.push_back(std::min(proposed, ref.nextTime()));
                return hops.back();
            });
        Simulator sim;
        std::deque<Block> blocks;
        ChainPolls chains(sim, blocks);
        std::size_t nextHop = 0;
        EngineLog got;
        try {
            got = driveModel(
                sim, chains, blocks, seed, lone,
                [&](Tick) {
                    return nextHop < hops.size() ? hops[nextHop++]
                                                 : sim.now();
                });
        } catch (const std::exception& e) {
            FAIL() << "seed " << seed << ": " << e.what();
        }
        ASSERT_EQ(got.fired, want.fired) << "seed " << seed;
        ASSERT_EQ(got.polls, want.polls) << "seed " << seed;
        ASSERT_EQ(got.eventsRun, want.eventsRun) << "seed " << seed;
        ASSERT_EQ(got.pending, want.pending) << "seed " << seed;
        ASSERT_EQ(got.now, want.now) << "seed " << seed;
        ASSERT_EQ(got.drained, want.drained) << "seed " << seed;
        // No herd: a woken poll finds nothing only when an earlier
        // check took the work it was woken for. (Eager chains' polls
        // are not counted: none of them is a wake for work.)
        ASSERT_LE(chains.idleWakes, got.takes) << "seed " << seed;
        fired += got.fired.size();
        takes += got.takes;
        elided += sim.eventsRun() - sim.dispatched();
    }
    // The mix must have fired a real workload, not a trivial one.
    EXPECT_GT(fired, 10000u);
    EXPECT_GT(takes, 2000u);
    EXPECT_GT(elided, 10000u);
}
