/**
 * @file
 * Work-queue library.
 *
 * One queue buffers the input data items of one pipeline stage. The
 * queue itself is a deterministic FIFO; the *cost* of using it from
 * massively parallel device code (atomics, pointer chasing, payload
 * movement, contention between concurrent accessors) is modeled by
 * accessCost(), which the runtime charges to the accessing block.
 */

#ifndef VP_QUEUEING_WORK_QUEUE_HH
#define VP_QUEUEING_WORK_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <typeindex>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "common/ring.hh"
#include "gpu/device_config.hh"
#include "obs/provenance.hh"
#include "obs/trace.hh"
#include "sim/simulator.hh"

namespace vp {

/** Statistics of one work queue over a run. */
struct QueueStats
{
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    std::size_t maxDepth = 0;
    /** Total cycles blocks spent on push/pop operations here. */
    double opCycles = 0.0;
    /** Cycles of that total attributable to contention. */
    double contentionCycles = 0.0;

    /** Fold in another queue's statistics: counters add, maxDepth
     *  takes the larger high-water mark. */
    QueueStats&
    operator+=(const QueueStats& o)
    {
        pushes += o.pushes;
        pops += o.pops;
        maxDepth = std::max(maxDepth, o.maxDepth);
        opCycles += o.opCycles;
        contentionCycles += o.contentionCycles;
        return *this;
    }
};

/**
 * Interval statistics between two snapshots of the same queue:
 * counters subtract; maxDepth is the interval's upper bound (the
 * high-water mark is monotone, so @p now's value bounds the
 * interval). This is how epoch accounting slices a long-lived run —
 * snapshot at each boundary and delta, never resetStats() mid-run,
 * which would also clear the contention window and re-baseline the
 * depth EWMA.
 */
inline QueueStats
queueStatsDelta(const QueueStats& now, const QueueStats& prev)
{
    QueueStats d;
    d.pushes = now.pushes - prev.pushes;
    d.pops = now.pops - prev.pops;
    d.maxDepth = now.maxDepth;
    d.opCycles = now.opCycles - prev.opCycles;
    d.contentionCycles = now.contentionCycles - prev.contentionCycles;
    return d;
}

/**
 * One kind of per-item metadata, kept parallel to a queue's payload
 * FIFO: a value per buffered item, a one-shot stamp for the next
 * push, and the values the last pop removed. A queue carries three
 * (retry counts, provenance ids, replay tags). Disabled (the
 * default), a lane allocates nothing and each bookkeeping call costs
 * one branch; a stamp then waits, unconsumed, for take().
 */
template <typename T>
class ItemLane
{
  public:
    bool enabled() const { return on_; }

    /** Switch on; the @p depth items already buffered get T{}. */
    void
    enable(std::size_t depth)
    {
        on_ = true;
        ring_.assign(depth, T{});
    }

    /** Switch off (the buffered values stay, unread). */
    void disable() { on_ = false; }

    /** Stamp the NEXT pushed item with @p v (one-shot). */
    void stamp(T v) { next_ = v; }

    /** Consume the pending stamp without pushing. */
    T
    take()
    {
        T v = next_;
        next_ = T{};
        return v;
    }

    /** Record one push, consuming the stamp. @return the pushed
     *  item's value (T{} while disabled). */
    T
    push()
    {
        if (!on_)
            return T{};
        T v = take();
        ring_.push_back(v);
        return v;
    }

    /** Record @p n pops: popped() becomes their values. */
    void
    pop(std::uint64_t n)
    {
        if (!on_)
            return;
        popped_.clear();
        for (std::uint64_t i = 0; i < n && !ring_.empty(); ++i) {
            popped_.push_back(ring_.front());
            ring_.pop_front();
        }
    }

    /** Value of the i-th buffered item (T{} if disabled). */
    T
    at(std::size_t i) const
    {
        return on_ && i < ring_.size() ? ring_[i] : T{};
    }

    /** Values of the items the last pop removed (scratch, reused). */
    const std::vector<T>& popped() const { return popped_; }

    /** Keep in sync with a clear() of the payload. */
    void clear() { ring_.clear(); }

  private:
    bool on_ = false;
    T next_{};
    Ring<T> ring_;
    std::vector<T> popped_;
};

/**
 * Type-erased base of all work queues, carrying the cost model and
 * statistics; typed payload access lives in WorkQueue<T>.
 */
class QueueBase
{
  public:
    /**
     * @param name queue name (usually the consumer stage's name)
     * @param itemBytes payload size of one data item
     * @param type typeid of the payload for checked downcasts
     */
    QueueBase(std::string name, int itemBytes, std::type_index type);

    virtual ~QueueBase();

    QueueBase(const QueueBase&) = delete;
    QueueBase& operator=(const QueueBase&) = delete;

    /** Queue name. */
    const std::string& name() const { return name_; }

    /** Payload bytes per item. */
    int itemBytes() const { return itemBytes_; }

    /** Payload type. */
    std::type_index type() const { return type_; }

    /** Items currently buffered. */
    std::size_t size() const { return count_; }

    /** Drop all buffered items. */
    virtual void clear() = 0;

    /**
     * Move every buffered item into @p dst (same payload type),
     * recording the pops here and the pushes there. Failover
     * evacuation: the group coordinator drains a dead device's
     * queues into survivor queues without knowing the payload type.
     * @return the number of items moved.
     */
    virtual std::size_t drainInto(QueueBase& dst) = 0;

    /**
     * Failover re-homing hook: a RemoteStubQueue switches to local
     * buffering (its stage now lives on this device); a real queue
     * ignores it.
     */
    virtual void takeOverLocal() {}

    /** True when no items are buffered. */
    bool empty() const { return count_ == 0; }

    /**
     * Cycle cost of one queue access moving @p items items at virtual
     * time @p now. Includes the contention surcharge derived from the
     * number of accesses within the recent window; also records this
     * access for future contention estimates and in the stats.
     */
    Tick accessCost(const DeviceConfig& cfg, Tick now, int items);

    /** Run statistics. */
    const QueueStats& stats() const { return stats_; }

    /**
     * Reset statistics (not contents). Also clears the contention
     * window: the recent-access ring is part of the per-run cost
     * accounting, so a queue reused across runs must not charge
     * phantom contention from the previous run's accesses.
     *
     * Run-boundary only. Inside a run — e.g. between serving epochs —
     * use stats() snapshots and queueStatsDelta() instead: a mid-run
     * reset would drop the contention window (perturbing access
     * costs, hence the event stream) and re-baseline the depth EWMA.
     */
    void
    resetStats()
    {
        stats_ = QueueStats();
        recent_.clear();
        // Re-baseline the smoothed depth to the *surviving* contents:
        // zeroing it on a non-empty queue would feed the adaptive
        // controller a phantom under-load signal on reuse.
        depthEwma_ = ewmaEnabled_ ? static_cast<double>(size()) : 0.0;
    }

    /**
     * Attach the run tracer (null detaches; never owned): every
     * push/pop records a QueueDepth counter sample on @p track
     * (conventionally the consumer stage index). @p nameId is the
     * tracer-interned display name.
     */
    void
    setTrace(Tracer* t, std::int16_t track, std::int32_t nameId)
    {
        tracer_ = t;
        traceTrack_ = track;
        traceName_ = nameId;
    }

    /** @name Capacity (backpressure / deadlock modeling) @{ */

    /** Bound the queue to @p cap items; 0 restores unbounded. */
    void setCapacity(std::size_t cap) { capacity_ = cap; }

    /** Configured capacity; 0 means unbounded. */
    std::size_t capacity() const { return capacity_; }

    /**
     * True when a bounded queue has no room for another item.
     * Virtual so RemoteStubQueue can honor the *home* queue's
     * capacity through a coordinator-wired credit probe.
     */
    virtual bool
    full() const
    {
        return capacity_ > 0 && size() >= capacity_;
    }

    /** @} */

    /** @name Depth EWMA (adaptive load-balance signal) @{
     *
     * When enabled, every push/pop folds the post-operation depth
     * into an exponentially weighted moving average inside the
     * existing bookkeeping hooks. The smoothed depth is what the
     * online load-balance controller reads at its epochs — pure
     * host-side arithmetic, never a simulation event, so enabling it
     * cannot perturb a run. Disabled (the default), the only cost on
     * the hot path is one branch per bookkeeping call.
     */

    /** Start tracking the depth EWMA with smoothing @p alpha. */
    void
    enableDepthEwma(double alpha)
    {
        ewmaEnabled_ = true;
        ewmaAlpha_ = alpha;
        depthEwma_ = static_cast<double>(size());
    }

    /** Smoothed queue depth (instantaneous size when disabled). */
    double
    depthEwma() const
    {
        return ewmaEnabled_ ? depthEwma_
                            : static_cast<double>(size());
    }

    /** @} */

    /** @name Retry metadata (fault/recovery support) @{
     *
     * When enabled, the queue carries a per-item retry count in an
     * ItemLane. Disabled by default.
     */

    /** Start tracking per-item retry counts (existing items get 0). */
    void
    enableRetryMeta()
    {
        if (!tries_.enabled())
            tries_.enable(size());
    }

    /** True once enableRetryMeta() was called. */
    bool retryMetaEnabled() const { return tries_.enabled(); }

    /** Stamp the NEXT pushed item with @p tries (one-shot). */
    void stampNextPushTries(std::uint32_t tries) { tries_.stamp(tries); }

    /** Retry count of the i-th buffered item (0 if meta disabled). */
    std::uint32_t triesAt(std::size_t i) const { return tries_.at(i); }

    /** Retry counts of the items removed by the last pop/popBatch. */
    const std::vector<std::uint32_t>&
    poppedTries() const
    {
        return tries_.popped();
    }

    /** @} */

    /** @name Item provenance (observability support) @{
     *
     * When attached, the queue carries a per-item provenance id in an
     * ItemLane and reports every enqueue of a tracked item to the
     * tracker with the current simulated time. Purely host-side
     * recording; detached by default.
     */

    /**
     * Attach the run's provenance tracker (null detaches; never
     * owned). @p stage / @p device identify this queue to the
     * tracker; existing items get id 0 (untracked).
     */
    void setProvenance(ProvenanceTracker* prov, const Simulator* sim,
                       int stage, int device);

    /** True while a tracker is attached. */
    bool provenanceEnabled() const { return ids_.enabled(); }

    /** Stamp the NEXT pushed item with provenance @p id (one-shot). */
    void stampNextPushId(std::uint64_t id) { ids_.stamp(id); }

    /** Consume a pending stamp without pushing (remote-stub diverts
     *  the item onto the interconnect instead of buffering it). */
    std::uint64_t takeStampedId() { return ids_.take(); }

    /** Provenance ids of the items removed by the last pop/popBatch
     *  (scratch — copy before the next pop). */
    const std::vector<std::uint64_t>& poppedIds() const
    {
        return ids_.popped();
    }

    /** @} */

    /** @name Item tags (tuner replay support) @{
     *
     * When enabled, the queue carries an opaque pointer per item in an
     * ItemLane: under task-graph capture and replay, the item's task
     * record (core/task_graph.hh). Disabled by default.
     */

    /** Start carrying item tags (existing items get null). */
    void enableTags() { tags_.enable(size()); }

    /** Stamp the NEXT pushed item with @p tag (one-shot). */
    void stampNextPushTag(const void* tag) { tags_.stamp(tag); }

    /** Consume a pending tag stamp without pushing (remote stub). */
    const void* takeStampedTag() { return tags_.take(); }

    /** Push a value-initialised item: a replayed child, whose tag
     *  stands in for its value. */
    virtual void pushPlaceholder() = 0;

    /** Tags of the items removed by the last pop/popBatch (valid
     *  until the next pop; empty while tags are disabled). */
    const std::vector<const void*>&
    poppedTags() const
    {
        return tags_.popped();
    }

    /** @} */

  protected:
    /** @name Bookkeeping of the payload FIFO
     * A subclass reports every change of its buffered items here,
     * with the item count after it; size() and empty() read that
     * count, so they are not virtual calls. @{ */

    void recordPush(std::size_t depthAfter);

    /** Record @p n pops in one bookkeeping step (a batch pop takes
     *  several). */
    void recordPop(std::size_t depthAfter, std::uint64_t n = 1);

    /** Keep item metadata in sync with a clear() of the payload. */
    void
    recordClear()
    {
        count_ = 0;
        tries_.clear();
        ids_.clear();
        tags_.clear();
    }

    /** @} */

  private:
    std::string name_;
    int itemBytes_;
    std::type_index type_;
    /** Items buffered in the subclass's payload FIFO. */
    std::size_t count_ = 0;

    /**
     * Timestamps of accesses inside the contention window
     * (timestamps are non-decreasing, so eviction only happens at the
     * head).
     */
    Ring<Tick> recent_;

    QueueStats stats_;

    std::size_t capacity_ = 0;
    bool ewmaEnabled_ = false;
    double ewmaAlpha_ = 0.5;
    double depthEwma_ = 0.0;
    Tracer* tracer_ = nullptr;
    std::int16_t traceTrack_ = 0;
    std::int32_t traceName_ = -1;
    ItemLane<std::uint32_t> tries_;
    ItemLane<std::uint64_t> ids_;
    ItemLane<const void*> tags_;
    /** The tracker the ids lane reports enqueues to, and this
     *  queue's identity there. */
    ProvenanceTracker* prov_ = nullptr;
    const Simulator* provSim_ = nullptr;
    int provStage_ = -1;
    int provDevice_ = 0;
};

/** FIFO of data items of type T. */
template <typename T>
class WorkQueue : public QueueBase
{
  public:
    explicit WorkQueue(std::string name)
        : QueueBase(std::move(name), static_cast<int>(sizeof(T)),
                    std::type_index(typeid(T)))
    {}

    void
    clear() override
    {
        items_.clear();
        recordClear();
    }

    /** Read-only access to the i-th buffered item (capture). */
    const T&
    at(std::size_t i) const
    {
        VP_ASSERT(i < items_.size(),
                  "queue `" << name() << "` index " << i
                            << " out of range");
        return items_[i];
    }

    /** Append one item. Virtual so RemoteStubQueue can divert pushes
     *  of stages homed on another device through the interconnect. */
    virtual void
    push(T v)
    {
        items_.push_back(std::move(v));
        recordPush(items_.size());
    }

    void pushPlaceholder() override { push(T{}); }

    /** Remove the oldest item into @p out; false when empty. */
    bool
    pop(T& out)
    {
        if (items_.empty())
            return false;
        out = std::move(items_.front());
        items_.pop_front();
        recordPop(items_.size());
        return true;
    }

    std::size_t
    drainInto(QueueBase& dst) override
    {
        WorkQueue<T>& t = typedQueue<T>(dst);
        std::size_t n = items_.size();
        T v;
        while (pop(v)) {
            // Carry each item's provenance id to its new home so
            // failover evacuation keeps lineages intact.
            if (provenanceEnabled() && !poppedIds().empty())
                t.stampNextPushId(poppedIds().front());
            t.push(std::move(v));
        }
        return n;
    }

    /** Pop up to @p maxItems items into @p out; returns the count. */
    std::size_t
    popBatch(std::vector<T>& out, std::size_t maxItems)
    {
        std::size_t n = std::min(maxItems, items_.size());
        out.reserve(out.size() + n);
        for (std::size_t i = 0; i < n; ++i) {
            out.push_back(std::move(items_.front()));
            items_.pop_front();
        }
        recordPop(items_.size(), n);
        return n;
    }

  private:
    std::deque<T> items_;
};

/**
 * Downcast a QueueBase to its typed queue, checking the payload type.
 */
template <typename T>
WorkQueue<T>&
typedQueue(QueueBase& q)
{
    VP_ASSERT(q.type() == std::type_index(typeid(T)),
              "queue `" << q.name() << "` holds a different item type");
    return static_cast<WorkQueue<T>&>(q);
}

} // namespace vp

#endif // VP_QUEUEING_WORK_QUEUE_HH
