#include "sim/simulator.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vp {

namespace {

constexpr Tick kInf = std::numeric_limits<Tick>::infinity();

/** Log length that triggers the first compaction; later ones wait
 *  for twice what the parked chains still needed. */
constexpr std::size_t kCompactMin = 256;

} // namespace

Simulator::Simulator()
{
    // The start of the stream: draws made before the first dispatch
    // count here.
    log_.push_back(LogEntry{-kInf, 0, 0, 0.0, 0});
    compactAt_ = kCompactMin;
}

std::uint32_t
Simulator::allocSlot()
{
    if (freeHead_ != kNone) {
        std::uint32_t idx = freeHead_;
        freeHead_ = slab_[idx].nextFree;
        slab_[idx].nextFree = kNone;
        return idx;
    }
    VP_ASSERT(slab_.size() < kSlotMask,
              "event slab exhausted (too many pending events)");
    slab_.emplace_back();
    return static_cast<std::uint32_t>(slab_.size() - 1);
}

void
Simulator::freeSlot(std::uint32_t idx)
{
    Slot& s = slab_[idx];
    s.fn.reset();
    s.heapPos = kNone;
    s.chain = kNone;
    // Stale handles to this slot's previous tenant now mismatch.
    ++s.gen;
    s.nextFree = freeHead_;
    freeHead_ = idx;
}

std::uint64_t
Simulator::draw()
{
    std::uint64_t n = ++drawn_;
    VP_ASSERT(n < (std::uint64_t(1) << (63 - kSlotBits)),
              "event sequence space exhausted");
    log_.back().drawn = n;
    return 2 * n;
}

void
Simulator::heapPush(HeapEntry e)
{
    heap_.push_back(e);
    siftUp(static_cast<std::uint32_t>(heap_.size() - 1));
}

void
Simulator::heapRemove(std::uint32_t pos)
{
    std::uint32_t last = static_cast<std::uint32_t>(heap_.size() - 1);
    slab_[heap_[pos].slot()].heapPos = kNone;
    if (pos != last) {
        heap_[pos] = heap_[last];
        heap_.pop_back();
        // The displaced element may need to move either direction.
        siftDown(pos);
        siftUp(pos);
    } else {
        heap_.pop_back();
    }
}

void
Simulator::siftUp(std::uint32_t pos)
{
    HeapEntry e = heap_[pos];
    while (pos > 0) {
        std::uint32_t parent = (pos - 1) / kArity;
        if (!firesBefore(e, heap_[parent]))
            break;
        heap_[pos] = heap_[parent];
        slab_[heap_[pos].slot()].heapPos = pos;
        pos = parent;
    }
    heap_[pos] = e;
    slab_[e.slot()].heapPos = pos;
}

void
Simulator::siftDown(std::uint32_t pos)
{
    HeapEntry e = heap_[pos];
    std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
        std::uint32_t first = kArity * pos + 1;
        if (first >= n)
            break;
        std::uint32_t stop = std::min(first + kArity, n);
        std::uint32_t best = first;
        for (std::uint32_t c = first + 1; c < stop; ++c)
            if (firesBefore(heap_[c], heap_[best]))
                best = c;
        if (!firesBefore(heap_[best], e))
            break;
        heap_[pos] = heap_[best];
        slab_[heap_[pos].slot()].heapPos = pos;
        pos = best;
    }
    heap_[pos] = e;
    slab_[e.slot()].heapPos = pos;
}

EventHandle
Simulator::at(Tick when, EventFn fn)
{
    VP_ASSERT(std::isfinite(when), "event time must be finite");
    VP_ASSERT(when + 1e-9 >= now_,
              "cannot schedule in the past: " << when << " < " << now_);
    std::uint32_t idx = allocSlot();
    slab_[idx].fn = std::move(fn);
    heapPush(HeapEntry{when > now_ ? when : now_,
                       (draw() << kSlotBits) | idx});
    return EventHandle(idx, slab_[idx].gen);
}

EventHandle
Simulator::after(Tick delay, EventFn fn)
{
    VP_ASSERT(delay >= 0.0, "negative delay " << delay);
    return at(now_ + delay, std::move(fn));
}

void
Simulator::cancel(EventHandle h)
{
    if (!h.valid() || h.slot_ >= slab_.size())
        return;
    Slot& s = slab_[h.slot_];
    // Stale generation: the event already fired (or was cancelled)
    // and the slot may belong to someone else now.
    if (s.gen != h.gen_ || s.heapPos == kNone)
        return;
    heapRemove(s.heapPos);
    freeSlot(h.slot_);
}

Simulator::Chain*
Simulator::live(PollChain h)
{
    if (h.idx >= chains_.size())
        return nullptr;
    Chain& c = chains_[h.idx];
    if (c.gen != h.gen || c.state == ChainState::Free)
        return nullptr;
    return &c;
}

void
Simulator::unlinkLive(Chain& c)
{
    std::uint32_t last = live_.back();
    live_[c.link] = last;
    chains_[last].link = c.link;
    live_.pop_back();
    c.link = kNone;
}

void
Simulator::freeChain(std::uint32_t idx)
{
    Chain& c = chains_[idx];
    c.onWake.reset();
    c.state = ChainState::Free;
    c.slot = kNone;
    ++c.gen;
    c.link = freeChain_;
    freeChain_ = idx;
}

void
Simulator::report(Chain& c)
{
    if (c.polls == 0)
        return;
    if (c.sink)
        c.sink->elidedPolls(c.tag, c.polls, c.idle);
    c.polls = 0;
    c.idle = 0.0;
}

PollChain
Simulator::park(PollChain chain, Tick backoff, Tick cap, PollSink* sink,
                int tag, EventFn onWake)
{
    VP_ASSERT(backoff > 0.0 && std::isfinite(backoff) && cap > 0.0,
              "poll backoff " << backoff << " / cap " << cap);
    Chain* prev = live(chain);
    bool cont = prev && prev->state == ChainState::Awake;
    std::uint32_t idx = chain.idx;
    if (!cont) {
        if (first_ == 0.0) {
            first_ = backoff;
            cap_ = cap;
        }
        if (freeChain_ != kNone) {
            idx = freeChain_;
            freeChain_ = chains_[idx].link;
        } else {
            VP_ASSERT(chains_.size() < kNone, "too many poll chains");
            chains_.emplace_back();
            idx = static_cast<std::uint32_t>(chains_.size() - 1);
        }
    }
    Chain& c = chains_[idx];
    std::uint64_t seq = draw();
    if (!cont) {
        c.t0 = now_;
        c.n0 = seq;
        c.polls = 0;
        c.idle = 0.0;
        // Origin order ranks chains on a common tick only when they
        // back off alike; a chain on another schedule is not parked.
        c.eager = backoff != first_ || cap != cap_;
    }
    // The first poll is due exactly where after(backoff) puts it.
    c.when = now_ + backoff;
    c.backoff = std::min(backoff * 1.5, cap);
    c.cap = cap;
    c.key = seq;
    c.logIdx = logBase_ + log_.size() - 1;
    c.sink = sink;
    c.tag = tag;
    c.onWake = std::move(onWake);
    c.state = ChainState::Parked;
    c.link = static_cast<std::uint32_t>(live_.size());
    live_.push_back(idx);
    if (parked_ == 0 || c.when < floor_)
        floor_ = c.when;
    ++parked_;
    PollChain h{idx, c.gen};
    if (c.eager)
        wake(h);
    return h;
}

std::uint64_t
Simulator::drawnBefore(Chain& c)
{
    std::uint64_t end = logBase_ + log_.size();
    while (c.logIdx < end && entryBefore(log_[c.logIdx - logBase_], c))
        ++c.logIdx;
    VP_ASSERT(c.logIdx > logBase_, "poll chain lost its log position");
    return log_[c.logIdx - 1 - logBase_].drawn;
}

void
Simulator::notePoll(Tick when)
{
    if (!polled_ || when > lastPoll_)
        lastPoll_ = when;
    polled_ = true;
}

void
Simulator::step(Chain& c)
{
    // The next poll drew its number when this one fired: right after
    // the r real numbers drawn before it, so it takes 2r + 1.
    std::uint64_t r = drawnBefore(c);
    ++c.polls;
    c.idle += c.backoff;
    ++eventsRun_;
    notePoll(c.when);
    // Repeated addition, as now + delay computes each poll today.
    c.when += c.backoff;
    c.backoff = std::min(c.backoff * 1.5, c.cap);
    c.key = 2 * r + 1;
}

std::uint64_t
Simulator::settle(Chain& c, const LogEntry& pos)
{
    std::uint64_t n = 0;
    while (!entryBefore(pos, c)) {
        if (c.backoff == c.cap) {
            // At the cap, the polls before both the next log entry
            // and pos all follow the same entry, so each leaves its
            // successor the key 2r + 1. Count them in one run of the
            // additions step() makes. A poll that ties either time
            // needs the key order: it goes through step().
            std::uint64_t r = drawnBefore(c);
            std::size_t next = c.logIdx - logBase_;
            Tick end = next < log_.size()
                ? std::min(pos.when, log_[next].when)
                : pos.when;
            if (c.when < end) {
                const Tick cap = c.cap;
                Tick when = c.when;
                Tick idle = c.idle;
                Tick last;
                std::uint64_t k = 0;
                do {
                    last = when;
                    idle += cap;
                    when += cap;
                    ++k;
                } while (when < end);
                c.when = when;
                c.idle = idle;
                c.polls += k;
                c.key = 2 * r + 1;
                eventsRun_ += k;
                notePoll(last);
                n += k;
                continue;
            }
        }
        step(c);
        ++n;
    }
    report(c);
    return n;
}

std::uint64_t
Simulator::settleAll(const LogEntry& pos)
{
    std::uint64_t n = 0;
    Tick lo = kInf;
    for (std::uint32_t idx : live_) {
        Chain& c = chains_[idx];
        if (c.state != ChainState::Parked)
            continue;
        n += settle(c, pos);
        lo = std::min(lo, c.when);
    }
    floor_ = lo;
    return n;
}

void
Simulator::wake(PollChain chain)
{
    Chain* c = live(chain);
    if (!c || c->state != ChainState::Parked)
        return;
    settle(*c, log_.back());
    std::uint32_t idx = allocSlot();
    slab_[idx].fn = std::move(c->onWake);
    slab_[idx].chain = chain.idx;
    c->slot = idx;
    c->state = ChainState::Woken;
    --parked_;
    heapPush(HeapEntry{c->when, (c->key << kSlotBits) | idx});
}

PollChain
Simulator::earliest(const PollChain* chains, std::size_t n)
{
    PollChain best;
    const Chain* bestChain = nullptr;
    for (std::size_t i = 0; i < n; ++i) {
        Chain* c = live(chains[i]);
        if (!c)
            continue;
        if (c->state == ChainState::Parked)
            settle(*c, log_.back());
        else if (c->state != ChainState::Woken)
            continue;
        if (!bestChain || pollBefore(*c, *bestChain)) {
            bestChain = c;
            best = chains[i];
        }
    }
    return best;
}

void
Simulator::cancel(PollChain chain)
{
    Chain* c = live(chain);
    if (!c)
        return;
    if (c->state == ChainState::Parked) {
        // The polls keyed before the cancelling event still fired.
        settle(*c, log_.back());
        --parked_;
    } else if (c->state == ChainState::Woken) {
        heapRemove(slab_[c->slot].heapPos);
        freeSlot(c->slot);
    }
    if (c->state != ChainState::Awake)
        unlinkLive(*c);
    freeChain(chain.idx);
}

Tick
Simulator::backoff(PollChain chain) const
{
    VP_ASSERT(chain.idx < chains_.size()
                  && chains_[chain.idx].gen == chain.gen
                  && chains_[chain.idx].state != ChainState::Free,
              "backoff of an ended poll chain");
    return chains_[chain.idx].backoff;
}

int
Simulator::addWakeHook(std::function<void()> fn)
{
    hooks_.emplace_back(nextHook_, std::move(fn));
    return nextHook_++;
}

void
Simulator::removeWakeHook(int id)
{
    hooks_.erase(std::remove_if(hooks_.begin(), hooks_.end(),
                                [id](const auto& h) {
                                    return h.first == id;
                                }),
                 hooks_.end());
}

void
Simulator::runHooks()
{
    for (auto& h : hooks_)
        h.second();
}

void
Simulator::compactLog()
{
    settleAll(log_.back());
    std::uint64_t keep = logBase_ + log_.size() - 1;
    for (std::uint32_t idx : live_) {
        const Chain& c = chains_[idx];
        if (c.state == ChainState::Parked)
            keep = std::min(keep, std::max(c.logIdx, logBase_ + 1) - 1);
    }
    log_.erase(log_.begin(),
               log_.begin() + static_cast<std::ptrdiff_t>(keep - logBase_));
    logBase_ = keep;
    compactAt_ = std::max(kCompactMin, 2 * log_.size());
}

void
Simulator::dispatch()
{
    HeapEntry e = heap_[0];
    heapRemove(0);
    std::uint32_t idx = e.slot();
    std::uint32_t woken = slab_[idx].chain;
    now_ = e.when;
    ++eventsRun_;
    ++dispatched_;
    LogEntry entry{e.when, e.seq(), drawn_, 0.0, 0};
    if (woken != kNone) {
        Chain& c = chains_[woken];
        entry.t0 = c.t0;
        entry.n0 = c.n0;
        c.state = ChainState::Awake;
        c.slot = kNone;
        unlinkLive(c);
    }
    // With no chain parked, nothing reads the log behind the current
    // position.
    if (live_.empty())
        log_.back() = entry;
    else
        log_.push_back(entry);
    EventFn fn = std::move(slab_[idx].fn);
    // Recycle before firing: the callback may schedule new events,
    // which can then reuse this slot immediately.
    freeSlot(idx);
    fn();
    // A woken poll that did not park again ends its chain.
    if (woken != kNone && chains_[woken].state == ChainState::Awake)
        freeChain(woken);
    runHooks();
    if (log_.size() > compactAt_)
        compactLog();
}

std::uint64_t
Simulator::pollBound(Tick t) const
{
    if (parked_ == 0 || t < floor_)
        return 0;
    // Every gap between polls is at least the first backoff.
    double bound = (std::floor((t - floor_) / first_) + 1.0)
        * static_cast<double>(parked_);
    return bound < 1.8e19 ? static_cast<std::uint64_t>(bound)
                          : ~std::uint64_t(0);
}

bool
Simulator::fireBefore(const LogEntry& target, std::uint64_t budget,
                      std::uint64_t& fired)
{
    fired = 0;
    // In bulk while the budget covers every poll due by a horizon:
    // their order cannot matter.
    for (;;) {
        if (parked_ == 0 || floor_ > target.when)
            return true;
        std::uint64_t left = budget - fired;
        if (pollBound(target.when) <= left) {
            VP_ASSERT(std::isfinite(target.when),
                      "parked polls never end: run them under an "
                      "event or time limit");
            fired += settleAll(target);
            return true;
        }
        std::uint64_t per = left / parked_;
        if (per < 2)
            break;
        Tick h = floor_ + static_cast<Tick>(per - 1) * first_;
        if (!(h < target.when))
            break;
        fired += settleAll(LogEntry{h, kAfterTick, 0, 0.0, 0});
    }
    // The rest one at a time, in stream order, up to the limit.
    for (;;) {
        Chain* next = nullptr;
        for (std::uint32_t idx : live_) {
            Chain& c = chains_[idx];
            if (c.state == ChainState::Parked && !entryBefore(target, c)
                && (!next || pollBefore(c, *next)))
                next = &c;
        }
        if (!next)
            return true;
        if (fired == budget)
            return false;
        step(*next);
        report(*next);
        ++fired;
    }
}

bool
Simulator::runUntil(Tick timeLimit, std::uint64_t eventLimit)
{
    std::uint64_t start = eventsRun_;
    bool dispatchedAny = false;
    polled_ = false;
    runHooks();
    bool drained = false;
    for (;;) {
        if (heap_.empty() && parked_ == 0) {
            drained = true;
            break;
        }
        bool due = !heap_.empty() && heap_[0].when <= timeLimit;
        std::uint64_t used = eventsRun_ - start;
        std::uint64_t budget = used < eventLimit ? eventLimit - used : 0;
        // The parked polls due before the next event fire first. While
        // the budget surely covers them they are counted later, in
        // bulk; otherwise they are fired now, in order, so the limit
        // falls exactly where it would with every poll dispatched.
        if (parked_ > 0 && (!due || pollBound(heap_[0].when) >= budget)) {
            LogEntry target{timeLimit, kAfterTick, 0, 0.0, 0};
            if (due) {
                const HeapEntry& top = heap_[0];
                target = LogEntry{top.when, top.seq(), 0, 0.0, 0};
                std::uint32_t w = slab_[top.slot()].chain;
                if (w != kNone) {
                    target.t0 = chains_[w].t0;
                    target.n0 = chains_[w].n0;
                }
            }
            std::uint64_t fired = 0;
            bool all = fireBefore(target, budget, fired);
            budget -= fired;
            if (!all)
                break;
        }
        if (!due || budget == 0)
            break;
        dispatch();
        dispatchedAny = true;
    }
    // The last event fired, elided or not, sets the clock.
    if (polled_)
        now_ = dispatchedAny ? std::max(now_, lastPoll_) : lastPoll_;
    return drained;
}

Tick
Simulator::run()
{
    runUntil(kInf, ~std::uint64_t(0));
    return now_;
}

void
Simulator::advanceTo(Tick t)
{
    if (!(t > now_))
        return;
    Tick next = heap_.empty() ? kInf : heap_[0].when;
    // floor_ bounds every parked cursor from below: the chains need a
    // look only when it could lie before t.
    if (parked_ > 0 && floor_ < t)
        for (std::uint32_t idx : live_)
            if (chains_[idx].state == ChainState::Parked)
                next = std::min(next, chains_[idx].when);
    VP_ASSERT(next + 1e-9 >= t,
              "advanceTo(" << t << ") would skip an event at " << next);
    now_ = t;
}

bool
Simulator::runBounded(std::uint64_t limit)
{
    return runUntil(kInf, limit);
}

void
PollWaiters::remove(PollChain chain)
{
    auto it = std::find(chains_.begin(), chains_.end(), chain);
    if (it == chains_.end())
        return;
    *it = chains_.back();
    chains_.pop_back();
    dirty_ = true;
}

void
PollWaiters::settle(Simulator& sim, bool work, bool all)
{
    if (chains_.empty())
        return;
    if (all) {
        if (!allWoken_)
            for (const PollChain& c : chains_)
                sim.wake(c);
        allWoken_ = true;
        return;
    }
    // The earliest woken stays the earliest until a chain joins or
    // leaves: every other chain's next poll only moves later.
    if (!work || !dirty_)
        return;
    sim.wake(sim.earliest(chains_.data(), chains_.size()));
    dirty_ = false;
}

} // namespace vp
