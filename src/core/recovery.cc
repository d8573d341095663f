#include "core/recovery.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"
#include "core/runtime.hh"

namespace vp {

Tick
RecoveryConfig::backoffFor(std::uint32_t tries) const
{
    Tick d = backoffBaseCycles;
    for (std::uint32_t i = 1; i < tries; ++i) {
        d *= backoffFactor;
        if (d >= backoffCapCycles)
            break;
    }
    return std::min(d, backoffCapCycles);
}

void
RecoveryConfig::validate() const
{
    // Backoffs become simulator delays, which must be finite.
    VP_CHECK(backoffBaseCycles >= 0.0 && std::isfinite(backoffBaseCycles),
             ErrorCode::Config,
             "recovery: backoffBaseCycles must be finite and >= 0");
    VP_CHECK(backoffFactor >= 1.0 && std::isfinite(backoffFactor),
             ErrorCode::Config,
             "recovery: backoffFactor must be finite and >= 1");
    VP_CHECK(backoffCapCycles >= backoffBaseCycles, ErrorCode::Config,
             "recovery: backoffCapCycles must be >= backoffBaseCycles");
    // The largest backoff, backoffFor(maxRetries), without looping
    // maxRetries times: the cap bounds it, and so does a factor of 1.
    Tick growth = std::pow(backoffFactor,
                           std::max(maxRetries, std::uint32_t(1)) - 1.0);
    Tick largest = backoffBaseCycles > 0.0
        ? std::min(backoffCapCycles, backoffBaseCycles * growth)
        : 0.0;
    VP_CHECK(std::isfinite(largest), ErrorCode::Config,
             "recovery: the backoff of retry " << maxRetries
             << " overflows (backoffFactor " << backoffFactor
             << " and no finite backoffCapCycles)");
    VP_CHECK(watchdogIntervalCycles >= 0.0, ErrorCode::Config,
             "recovery: watchdogIntervalCycles must be >= 0");
    VP_CHECK(watchdogStallChecks >= 1, ErrorCode::Config,
             "recovery: watchdogStallChecks must be >= 1");
    VP_CHECK(drainTimeoutCycles >= 0.0, ErrorCode::Config,
             "recovery: drainTimeoutCycles must be >= 0");
}

void
RecoveryManager::init(Simulator* sim, const RecoveryConfig* cfg,
                      int stageCount, GroupCoordinator* group, int device)
{
    sim_ = sim;
    cfg_ = cfg;
    group_ = group;
    device_ = device;
    buffered_.assign(static_cast<std::size_t>(stageCount), 0);
    redeliveries_ = 0;
}

void
RecoveryManager::scheduleRedeliver(
    int stage, QueueBase* q, std::function<void(QueueBase&)> redeliver,
    int count, std::uint32_t tries)
{
    VP_ASSERT(sim_ && cfg_ && group_,
              "RecoveryManager used before init()");
    VP_ASSERT(count > 0 && redeliver, "empty redelivery batch");
    buffered_[static_cast<std::size_t>(stage)] += count;
    sim_->after(
        cfg_->backoffFor(std::max<std::uint32_t>(tries, 1)),
        [this, stage, q, fn = std::move(redeliver), count] {
            buffered_[static_cast<std::size_t>(stage)] -= count;
            ++redeliveries_;
            if (tracer_)
                tracer_->instant(TraceKind::Redeliver, 0,
                                 sim_->now(), stage, count);
            QueueBase* target = group_->redirect(device_, stage);
            fn(target ? *target : *q);
            if (onRedelivered_)
                onRedelivered_(stage);
        });
}

std::int64_t
RecoveryManager::totalBuffered() const
{
    std::int64_t t = 0;
    for (std::int64_t b : buffered_)
        t += b;
    return t;
}

} // namespace vp
