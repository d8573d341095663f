#include "sim/simulator.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vp {

std::uint32_t
Simulator::allocSlot()
{
    if (freeHead_ != EventHandle::kNone) {
        std::uint32_t idx = freeHead_;
        freeHead_ = slab_[idx].nextFree;
        slab_[idx].nextFree = EventHandle::kNone;
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
    s.heapPos = kNotQueued;
    // Stale handles to this slot's previous tenant now mismatch.
    ++s.gen;
    s.nextFree = freeHead_;
    freeHead_ = idx;
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
    slab_[heap_[pos].slot()].heapPos = kNotQueued;
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
    HeapEntry e{when > now_ ? when : now_, claim(std::move(fn))};
    heapPush(e);
    return EventHandle(e.slot(), slab_[e.slot()].gen);
}

std::uint64_t
Simulator::claim(EventFn fn)
{
    std::uint32_t idx = allocSlot();
    slab_[idx].fn = std::move(fn);
    std::uint64_t seq = nextSeq_++;
    VP_ASSERT(seq < (std::uint64_t(1) << (64 - kSlotBits)),
              "event sequence space exhausted");
    return (seq << kSlotBits) | idx;
}

EventHandle
Simulator::after(Tick delay, EventFn fn)
{
    VP_ASSERT(delay >= 0.0, "negative delay " << delay);
    return at(now_ + delay, std::move(fn));
}

Simulator::Lane*
Simulator::laneFor(Tick delay)
{
    for (Lane& l : lanes_)
        if (l.delay == delay)
            return &l;
    if (lanes_.size() >= kMaxLanes)
        return nullptr;
    lanes_.push_back(Lane{delay, {}});
    return &lanes_.back();
}

EventHandle
Simulator::afterFixed(Tick delay, EventFn fn)
{
    VP_ASSERT(delay >= 0.0, "negative delay " << delay);
    Tick when = now_ + delay;
    VP_ASSERT(std::isfinite(when), "event time must be finite");
    Lane* lane = laneFor(delay);
    // A lane must stay in key order. advanceTo's tolerance lets the
    // clock step back by under 1e-9 when a slightly earlier event
    // fires after it; an event that would then sort before the
    // lane's tail, or find every lane taken, goes on the heap under
    // the same key.
    if (!lane
        || (!lane->fifo.empty() && when < lane->fifo.back().key.when))
        return at(when, std::move(fn));
    HeapEntry e{when, claim(std::move(fn))};
    Slot& s = slab_[e.slot()];
    s.heapPos = kInLane;
    lane->fifo.push_back(LaneEntry{e, s.gen});
    ++laneLive_;
    return EventHandle(e.slot(), s.gen);
}

void
Simulator::cancel(EventHandle h)
{
    if (!h.valid() || h.slot_ >= slab_.size())
        return;
    Slot& s = slab_[h.slot_];
    // Stale generation: the event already fired (or was cancelled)
    // and the slot may belong to someone else now.
    if (s.gen != h.gen_ || s.heapPos == kNotQueued)
        return;
    // A lane entry stays in its lane; the generation bump below
    // marks it dead for next().
    if (s.heapPos == kInLane)
        --laneLive_;
    else
        heapRemove(s.heapPos);
    freeSlot(h.slot_);
}

Simulator::Next
Simulator::next()
{
    Next n{heap_.empty() ? nullptr : &heap_[0], -1};
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        Ring<LaneEntry>& fifo = lanes_[i].fifo;
        while (!fifo.empty()
               && slab_[fifo.front().key.slot()].gen != fifo.front().gen)
            fifo.pop_front();
        if (!fifo.empty()
            && (!n.key || firesBefore(fifo.front().key, *n.key)))
            n = Next{&fifo.front().key, static_cast<int>(i)};
    }
    return n;
}

void
Simulator::dispatch(Next n)
{
    HeapEntry e = *n.key;
    if (n.lane < 0) {
        heapRemove(0);
    } else {
        lanes_[static_cast<std::size_t>(n.lane)].fifo.pop_front();
        --laneLive_;
    }
    std::uint32_t idx = e.slot();
    now_ = e.when;
    ++eventsRun_;
    EventFn fn = std::move(slab_[idx].fn);
    // Recycle before firing: the callback may schedule new events,
    // which can then reuse this slot immediately.
    freeSlot(idx);
    fn();
}

Tick
Simulator::run()
{
    while (!stop_) {
        Next n = next();
        if (!n.key)
            break;
        dispatch(n);
    }
    return now_;
}

bool
Simulator::runUntil(Tick timeLimit, std::uint64_t eventLimit)
{
    std::uint64_t start = eventsRun_;
    for (;;) {
        Next n = next();
        if (!n.key)
            return true;
        if (stop_)
            return false;
        if (eventsRun_ - start >= eventLimit)
            return false;
        if (n.key->when > timeLimit)
            return false;
        dispatch(n);
    }
}

void
Simulator::advanceTo(Tick t)
{
    if (!(t > now_))
        return;
    Next n = next();
    VP_ASSERT(!n.key || n.key->when + 1e-9 >= t,
              "advanceTo(" << t << ") would skip an event at "
                           << n.key->when);
    now_ = t;
}

bool
Simulator::runBounded(std::uint64_t limit)
{
    return runUntil(std::numeric_limits<Tick>::infinity(), limit);
}

} // namespace vp
