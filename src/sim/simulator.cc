#include "sim/simulator.hh"

#include <algorithm>
#include <cmath>

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
    std::uint32_t idx = allocSlot();
    Slot& s = slab_[idx];
    s.fn = std::move(fn);
    std::uint32_t gen = s.gen;
    std::uint64_t seq = nextSeq_++;
    VP_ASSERT(seq < (std::uint64_t(1) << (64 - kSlotBits)),
              "event sequence space exhausted");
    heapPush(HeapEntry{when > now_ ? when : now_,
                       (seq << kSlotBits) | idx});
    return EventHandle(idx, gen);
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
    if (s.gen != h.gen_ || s.heapPos == kNotQueued)
        return;
    heapRemove(s.heapPos);
    freeSlot(h.slot_);
}

void
Simulator::dispatchNext()
{
    std::uint32_t idx = heap_[0].slot();
    now_ = heap_[0].when;
    ++eventsRun_;
    EventFn fn = std::move(slab_[idx].fn);
    heapRemove(0);
    // Recycle before firing: the callback may schedule new events,
    // which can then reuse this slot immediately.
    freeSlot(idx);
    fn();
}

Tick
Simulator::run()
{
    while (!heap_.empty() && !stop_)
        dispatchNext();
    return now_;
}

bool
Simulator::runUntil(Tick timeLimit, std::uint64_t eventLimit)
{
    std::uint64_t start = eventsRun_;
    while (!heap_.empty()) {
        if (stop_)
            return false;
        if (eventsRun_ - start >= eventLimit)
            return false;
        if (heap_[0].when > timeLimit)
            return false;
        dispatchNext();
    }
    return true;
}

void
Simulator::advanceTo(Tick t)
{
    if (!(t > now_))
        return;
    VP_ASSERT(heap_.empty() || heap_[0].when + 1e-9 >= t,
              "advanceTo(" << t << ") would skip an event at "
                           << heap_[0].when);
    now_ = t;
}

bool
Simulator::runBounded(std::uint64_t limit)
{
    std::uint64_t start = eventsRun_;
    while (!heap_.empty()) {
        if (stop_)
            return false;
        if (eventsRun_ - start >= limit)
            return false;
        dispatchNext();
    }
    return true;
}

} // namespace vp
