/**
 * @file
 * Unit tests for the discrete-event simulation core.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <cstdint>
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

TEST(Simulator, FixedDelayEventsInterleaveByKey)
{
    // Lane and heap events share one (time, schedule order) key.
    Simulator sim;
    std::vector<char> order;
    auto log = [&](char c) { return [&order, c] { order.push_back(c); }; };
    sim.afterFixed(100.0, log('A'));
    sim.after(100.0, log('B'));
    sim.afterFixed(50.0, log('C'));
    sim.at(100.0, log('D'));
    sim.afterFixed(100.0, log('E'));
    sim.afterFixed(0.0, log('F'));
    EXPECT_EQ(sim.pendingEvents(), 6u);
    sim.run();
    EXPECT_EQ(order, (std::vector<char>{'F', 'C', 'A', 'B', 'D', 'E'}));
    EXPECT_EQ(sim.eventsRun(), 6u);
    EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, CancelledLaneEventNeverFires)
{
    Simulator sim;
    bool ranA = false, ranB = false;
    EventHandle a = sim.afterFixed(5.0, [&] { ranA = true; });
    sim.cancel(a);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    // B reuses A's slot and queues behind A's dead entry.
    EventHandle b = sim.afterFixed(5.0, [&] { ranB = true; });
    sim.cancel(a); // stale: must not touch b
    EXPECT_EQ(sim.pendingEvents(), 1u);
    EXPECT_TRUE(sim.runUntil(1e9, 10));
    EXPECT_FALSE(ranA);
    EXPECT_TRUE(ranB);
    EXPECT_EQ(sim.eventsRun(), 1u);
    sim.cancel(b); // post-run: no-op
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, LaneKeepsKeyOrderWhenTheClockStepsBack)
{
    // advanceTo tolerates an event up to 1e-9 before its target, so
    // the clock can step back when that event fires. A fixed-delay
    // event scheduled then sorts before the lane's tail and must
    // still fire first.
    Simulator sim;
    std::vector<char> order;
    sim.at(100.0, [&] {
        order.push_back('X');
        sim.afterFixed(10.0, [&] { order.push_back('C'); });
    });
    sim.advanceTo(100.0 + 5e-10);
    sim.afterFixed(10.0, [&] { order.push_back('A'); });
    sim.run();
    EXPECT_EQ(order, (std::vector<char>{'X', 'C', 'A'}));
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
 * order). afterFixed is after; there are no lanes.
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

    Handle
    afterFixed(Tick delay, std::function<void()> fn)
    {
        return after(delay, std::move(fn));
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

/** What driveEngine saw: fired (id, time) and counters
 *  after every step. */
struct EngineLog
{
    std::vector<std::pair<std::size_t, Tick>> fired;
    std::vector<std::uint64_t> eventsRun;
    std::vector<std::size_t> pending;
    std::vector<Tick> now;
    std::vector<bool> drained;
};

/**
 * Drive engine @p sim with a random mix keyed by @p seed: heap events
 * through at() and after() with arbitrary delays, fixed-delay events
 * with ten delays (0 among them; past the engine's eight lanes, so
 * some take the heap), cancels of either kind and of fired or stale
 * handles, children scheduled from callbacks, and runUntil slices
 * with time and event limits between advanceTo hops. Delays are
 * mostly multiples of 18.75, so lane, cross-lane and heap events tie
 * exactly. @p hop maps a proposed advanceTo target to a legal one (at
 * most the next pending event's time).
 */
template <typename Sim, typename Hop>
EngineLog
driveEngine(Sim& sim, std::uint64_t seed, Hop hop)
{
    using Handle = decltype(sim.after(0.0, [] {}));
    static constexpr Tick kFixed[] = {0.0,   150.0, 225.0,  337.5,
                                      450.0, 18.75, 37.5,   75.0,
                                      93.75, 131.25};
    EngineLog log;
    std::vector<Handle> handles;

    auto delayFor = [](std::uint64_t h) -> Tick {
        if (h % 5 == 0)
            return static_cast<Tick>(h >> 40 & 0xffff) / 7.0;
        return static_cast<Tick>((h >> 8) % 25) * 18.75;
    };
    std::function<void(std::uint64_t)> schedule;
    auto fire = [&](std::size_t id) {
        log.fired.emplace_back(id, sim.now());
        std::uint64_t h = mix(seed ^ mix(id));
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
        switch (h % 4) {
          case 0:
            handles.push_back(sim.at(sim.now() + delayFor(h >> 2), fn));
            break;
          case 1:
            handles.push_back(sim.after(delayFor(h >> 2), fn));
            break;
          default:
            handles.push_back(
                sim.afterFixed(kFixed[(h >> 2) % 10], fn));
            break;
        }
    };

    std::uint64_t r = mix(seed);
    for (int step = 0; step < 60; ++step) {
        r = mix(r);
        for (std::uint64_t i = 0; i < r % 12; ++i)
            schedule(mix(r + i));
        r = mix(r);
        for (std::uint64_t i = 0; i < r % 3 && !handles.empty(); ++i)
            sim.cancel(handles[mix(r + i) % handles.size()]);
        r = mix(r);
        if (r % 4 == 0) {
            sim.advanceTo(
                hop(sim.now() + static_cast<Tick>(r >> 8 & 0xff)));
        }
        r = mix(r);
        Tick limit = sim.now() + static_cast<Tick>((r >> 4) % 1200);
        std::uint64_t events = (r >> 24) % 3 == 0 ? ~0ull : (r >> 32) % 40;
        log.drained.push_back(sim.runUntil(limit, events));
        log.eventsRun.push_back(sim.eventsRun());
        log.pending.push_back(sim.pendingEvents());
        log.now.push_back(sim.now());
    }
    log.drained.push_back(sim.runUntil(1e18, ~0ull));
    log.eventsRun.push_back(sim.eventsRun());
    log.pending.push_back(sim.pendingEvents());
    log.now.push_back(sim.now());
    return log;
}

} // namespace

TEST(Simulator, LanesMatchAReferenceOrderEngine)
{
    // Differential property test: the lane engine must fire exactly
    // what a flat (time, schedule order) scan fires, in the same
    // order, with the same counters after every run slice.
    std::uint64_t fired = 0;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        // The reference picks each advanceTo target; the lane engine
        // replays them.
        RefSim ref;
        std::vector<Tick> hops;
        EngineLog want = driveEngine(ref, seed, [&](Tick proposed) {
            hops.push_back(std::min(proposed, ref.nextTime()));
            return hops.back();
        });
        Simulator sim;
        std::size_t nextHop = 0;
        EngineLog got;
        try {
            got = driveEngine(sim, seed, [&](Tick) {
                return nextHop < hops.size() ? hops[nextHop++]
                                             : sim.now();
            });
        } catch (const std::exception& e) {
            FAIL() << "seed " << seed << ": " << e.what();
        }
        ASSERT_EQ(got.fired, want.fired) << "seed " << seed;
        ASSERT_EQ(got.eventsRun, want.eventsRun) << "seed " << seed;
        ASSERT_EQ(got.pending, want.pending) << "seed " << seed;
        ASSERT_EQ(got.now, want.now) << "seed " << seed;
        ASSERT_EQ(got.drained, want.drained) << "seed " << seed;
        fired += got.fired.size();
    }
    // The mix must have fired a real workload, not a trivial one.
    EXPECT_GT(fired, 10000u);
}
