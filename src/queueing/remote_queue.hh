/**
 * @file
 * Remote-hop queue stub for sharded pipelines.
 *
 * When a stage is pinned to another device of the group, the local
 * runner installs a RemoteStubQueue in that stage's queue slot. A
 * push into the stub does not buffer locally: it hands the item to a
 * forward callback (wired by the group coordinator), which pays the
 * interconnect transfer cost and delivers the item into the home
 * device's real queue at the modeled arrival time.
 *
 * The stub always reports size 0 — local blocks never find work for
 * remote stages. Bounded-queue backpressure, however, must survive
 * the hop: full() consults a coordinator-wired credit probe that
 * charges the home queue's depth *plus* every in-flight transfer
 * against the home capacity, so a producer on the wrong device
 * commit-waits exactly like a local producer would. Without the
 * probe (unbounded stages, or single-device runs) full() stays
 * false, as before.
 */

#ifndef VP_QUEUEING_REMOTE_QUEUE_HH
#define VP_QUEUEING_REMOTE_QUEUE_HH

#include <functional>
#include <utility>

#include "queueing/work_queue.hh"

namespace vp {

/**
 * Forwards one pushed item toward its home device: arguments are the
 * payload bytes, the item's provenance id (0 when untracked), its
 * tag (null when untagged) and a closure that pushes the item into
 * whatever queue the coordinator delivers it to.
 */
using RemoteForward = std::function<void(
    int, std::uint64_t, const void*, std::function<void(QueueBase&)>)>;

/**
 * Answers "is the home queue of this stage out of credit?" — true
 * when home depth + in-flight transfers >= home capacity.
 */
using RemoteFullProbe = std::function<bool()>;

/** Queue stub whose pushes divert to another device. */
template <typename T>
class RemoteStubQueue : public WorkQueue<T>
{
  public:
    RemoteStubQueue(std::string name, RemoteForward forward)
        : WorkQueue<T>(std::move(name)), forward_(std::move(forward))
    {}

    /** Wire the credit probe (bounded home stages only). */
    void
    setFullProbe(RemoteFullProbe probe)
    {
        fullProbe_ = std::move(probe);
    }

    /**
     * Credit-scheme backpressure: the stub itself never buffers, but
     * a bounded home queue's capacity counts items already there and
     * items still riding the interconnect. After a failover takeover
     * the stage is local and ordinary capacity rules apply.
     */
    bool
    full() const override
    {
        if (local_)
            return QueueBase::full();
        return fullProbe_ && fullProbe_();
    }

    void
    push(T v) override
    {
        if (local_) {
            WorkQueue<T>::push(std::move(v));
            return;
        }
        // The delivery closure re-stamps the id so the landing
        // queue's enqueue bookkeeping sees the same item, wherever
        // failover ends up delivering it. The tag travels beside it.
        std::uint64_t id = this->takeStampedId();
        forward_(this->itemBytes(), id, this->takeStampedTag(),
                 [id, v = std::move(v)](QueueBase& dst) mutable {
                     if (id)
                         dst.stampNextPushId(id);
                     typedQueue<T>(dst).push(std::move(v));
                 });
    }

    /**
     * Failover re-homing: this stage's home device died and the
     * coordinator elected this device the new home. From now on the
     * stub buffers like an ordinary local queue; the coordinator
     * re-points remote producers at this device.
     */
    void takeOverLocal() override { local_ = true; }

  private:
    RemoteForward forward_;
    RemoteFullProbe fullProbe_;
    bool local_ = false;
};

} // namespace vp

#endif // VP_QUEUEING_REMOTE_QUEUE_HH
