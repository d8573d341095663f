/**
 * @file
 * Out-of-line template definitions of the stage API that need the
 * full Pipeline definition. Include core/versapipe.hh, which pulls
 * this in last, rather than this header directly.
 */

#ifndef VP_CORE_STAGE_IMPL_HH
#define VP_CORE_STAGE_IMPL_HH

#include "core/pipeline.hh"
#include "core/stage.hh"

namespace vp {

template <typename S>
void
ExecContext::enqueue(typename S::DataItemType item)
{
    using T = typename S::DataItemType;
    int idx = pipe_.indexOf<S>();
    if (inlineMask_ & (StageMask(1) << idx)) {
        // RTC-style inline chaining: the downstream stage runs inside
        // the same task; its cost folds into the current task.
        VP_ASSERT(inlineDepth_ < kMaxInlineDepth,
                  "inline chain too deep (cycle in RTC group?)");
        ++inlineDepth_;
        S& st = pipe_.stageAs<S>();
        addInlineCost(inlinedCost(st.cost(item), st.threadNum));
        noteInlineRun(idx);
        st.execute(*this, item);
        --inlineDepth_;
        return;
    }
    // Under capture the child gets a fresh record, named by this
    // effect; the child's task fills it.
    const TaskGraph::Task* record = nullptr;
    if (capture_) {
        record = &capture_->newTask();
        effects_->push_back(TaskGraph::Effect{idx, -1, record});
    }
    outputs_.push_back(StagedOutput{
        idx,
        [item = std::move(item)](QueueBase& q) mutable {
            typedQueue<T>(q).push(std::move(item));
        },
        provParent_, record});
}

template <typename K>
void
ExecContext::arrive(Join<K> join, const K& key)
{
    const KeyedJoin<K>& j = pipe_.joinAs(join);
    if (!arrived(joinKey(join.index, key), j.expected(key), j))
        return;
    // Under capture, the continuation's effects are its join slot's,
    // recorded once; the arrival recorded last names the slot.
    std::vector<TaskGraph::Effect>* outer = effects_;
    if (capture_)
        effects_ = &capture_->slot(outer->back().slot).then.effects;
    j.then(*this, key);
    effects_ = outer;
}

template <typename T>
BatchResult
Stage<T>::runBatch(ExecContext& ctx, QueueBase& q, int maxItems,
                   FaultBatch* fb)
{
    auto& tq = typedQueue<T>(q);
    std::vector<T> items;
    tq.popBatch(items, static_cast<std::size_t>(maxItems));
    // The pop's metadata scratch holds until the queue's next pop,
    // which no execute() can cause. Retry counts ride only on queues
    // of runs that inject fetch faults.
    const std::vector<std::uint64_t>& ids = tq.poppedIds();
    const std::vector<std::uint32_t>& tries = tq.poppedTries();
    // Under capture and replay, each item carries its task record as
    // its tag.
    const std::vector<const void*>& tags = tq.poppedTags();
    bool tracked = tq.provenanceEnabled();
    auto idOf = [&](std::size_t i) -> std::uint64_t {
        return tracked && i < ids.size() ? ids[i] : 0;
    };
    auto triesOf = [&](std::size_t i) -> std::uint32_t {
        return tq.retryMetaEnabled() && i < tries.size() ? tries[i] : 0;
    };

    // A popped item set aside for a later re-push, with the retry
    // count and provenance id it re-enters its queue with.
    struct Kept
    {
        T item;
        std::uint32_t tries;
        std::uint64_t id;
    };
    auto rePush = [](std::vector<Kept> batch) {
        std::function<void(QueueBase&)> fn;
        if (!batch.empty())
            fn = [batch = std::move(batch)](QueueBase& dst) {
                auto& dq = typedQueue<T>(dst);
                for (const Kept& e : batch) {
                    dq.stampNextPushTries(e.tries);
                    if (e.id)
                        dq.stampNextPushId(e.id);
                    dq.push(e.item);
                }
            };
        return fn;
    };

    // The first failItems items of the batch take the transient
    // faults — a fixed, deterministic assignment.
    std::size_t failed = 0;
    if (fb) {
        failed = std::min<std::size_t>(
            static_cast<std::size_t>(std::max(fb->failItems, 0)),
            items.size());
        std::vector<Kept> retry;
        for (std::size_t i = 0; i < failed; ++i) {
            std::uint32_t t = triesOf(i);
            if (t >= fb->maxRetries) {
                ++fb->deadLettered;
                if (idOf(i))
                    fb->deadIds.push_back(idOf(i));
                continue;
            }
            retry.push_back({std::move(items[i]), t + 1, idOf(i)});
            fb->maxTries = std::max(fb->maxTries, t + 1);
        }
        fb->retried = static_cast<int>(retry.size());
        fb->redeliver = rePush(std::move(retry));
    }

    BatchResult r;
    bool keep = fb && fb->captureExecuted;
    std::vector<Kept> captured;
    for (std::size_t i = failed; i < items.size(); ++i) {
        T& item = items[i];
        if (keep)
            captured.push_back({item, triesOf(i) + 1, idOf(i)});
        if (tracked)
            ctx.setProvParent(idOf(i));
        const void* tag = i < tags.size() ? tags[i] : nullptr;
        if (ctx.replaying()) {
            ctx.replayTask(tag);
        } else {
            ctx.beginTask(cost(item));
            execute(ctx, item);
            if (ctx.capturing())
                ctx.captureTask(tag);
        }
        TaskCost c = ctx.endTask();
        r.maxTaskInsts = std::max(r.maxTaskInsts,
                                  c.computeInsts + c.memInsts);
        r.total += c;
    }
    ctx.setProvParent(0);
    r.items = static_cast<int>(items.size() - failed);
    if (keep)
        fb->capture = rePush(std::move(captured));
    return r;
}

} // namespace vp

#endif // VP_CORE_STAGE_IMPL_HH
