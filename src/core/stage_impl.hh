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
    if (capture_)
        capturedKeys_.push_back(itemKey(item));
    outputs_.push_back(StagedOutput{
        idx,
        [item = std::move(item)](QueueBase& q) mutable {
            typedQueue<T>(q).push(std::move(item));
        },
        provParent_});
}

template <typename T>
BatchResult
Stage<T>::runBatch(ExecContext& ctx, QueueBase& q, int maxItems)
{
    auto& tq = typedQueue<T>(q);
    std::vector<T> items;
    tq.popBatch(items, static_cast<std::size_t>(maxItems));
    // Copy: the next pop overwrites the queue's scratch vector.
    std::vector<std::uint64_t> ids;
    if (tq.provenanceEnabled()) {
        ids = tq.poppedIds();
        ids.resize(items.size(), 0);
    }

    BatchResult r;
    r.items = static_cast<int>(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        T& item = items[i];
        if (!ids.empty())
            ctx.setProvParent(ids[i]);
        if (ctx.replaying()) {
            ctx.replayTask(itemKey(item));
        } else if (ctx.capturing()) {
            // The key is the item as popped: execute() may change it.
            std::string key = itemKey(item);
            ctx.beginTask(cost(item));
            execute(ctx, item);
            ctx.captureTask(std::move(key));
        } else {
            ctx.beginTask(cost(item));
            execute(ctx, item);
        }
        TaskCost c = ctx.endTask();
        r.maxTaskInsts = std::max(r.maxTaskInsts,
                                  c.computeInsts + c.memInsts);
        r.total += c;
    }
    ctx.setProvParent(0);
    return r;
}

template <typename T>
BatchResult
Stage<T>::runBatchFI(ExecContext& ctx, QueueBase& q, int maxItems,
                     int failItems, std::uint32_t maxRetries,
                     bool wantCapture, FaultBatch& fb)
{
    auto& tq = typedQueue<T>(q);
    std::vector<T> items;
    tq.popBatch(items, static_cast<std::size_t>(maxItems));
    // Copy: the next pop overwrites the queue's scratch vectors.
    std::vector<std::uint32_t> tries = tq.poppedTries();
    tries.resize(items.size(), 0);
    std::vector<std::uint64_t> ids = tq.poppedIds();
    ids.resize(items.size(), 0);

    // The first failItems items of the batch take the transient
    // faults — a fixed, deterministic assignment.
    struct RetryItem
    {
        T item;
        std::uint32_t tries;
        std::uint64_t id;
    };
    std::vector<RetryItem> retry;
    std::size_t nf = std::min<std::size_t>(
        failItems < 0 ? 0 : static_cast<std::size_t>(failItems),
        items.size());
    for (std::size_t i = 0; i < nf; ++i) {
        if (tries[i] >= maxRetries) {
            ++fb.deadLettered;
            if (ids[i])
                fb.deadIds.push_back(ids[i]);
            continue;
        }
        retry.push_back({std::move(items[i]), tries[i] + 1, ids[i]});
        fb.maxTries = std::max(fb.maxTries, tries[i] + 1);
    }
    if (!retry.empty()) {
        fb.retried = static_cast<int>(retry.size());
        fb.redeliver = [batch = std::move(retry)](QueueBase& dst) {
            auto& dq = typedQueue<T>(dst);
            for (const RetryItem& e : batch) {
                dq.stampNextPushTries(e.tries);
                if (e.id)
                    dq.stampNextPushId(e.id);
                dq.push(e.item);
            }
        };
    }

    BatchResult r;
    std::vector<RetryItem> cap;
    for (std::size_t i = nf; i < items.size(); ++i) {
        if (wantCapture)
            cap.push_back({items[i], tries[i] + 1, ids[i]});
        T& item = items[i];
        if (tq.provenanceEnabled()) {
            ctx.setProvParent(ids[i]);
            fb.execIds.push_back(ids[i]);
        }
        ctx.beginTask(cost(item));
        execute(ctx, item);
        TaskCost c = ctx.endTask();
        r.maxTaskInsts = std::max(r.maxTaskInsts,
                                  c.computeInsts + c.memInsts);
        r.total += c;
        ++r.items;
    }
    ctx.setProvParent(0);
    fb.executed = r.items;
    if (!cap.empty()) {
        fb.capture = [batch = std::move(cap)](QueueBase& dst) {
            auto& dq = typedQueue<T>(dst);
            for (const RetryItem& e : batch) {
                dq.stampNextPushTries(e.tries);
                if (e.id)
                    dq.stampNextPushId(e.id);
                dq.push(e.item);
            }
        };
    }
    return r;
}

} // namespace vp

#endif // VP_CORE_STAGE_IMPL_HH
