/**
 * @file
 * DpRunner: CUDA dynamic-parallelism execution (sec 8.4). Every data
 * item a stage produces triggers a device-side sub-kernel launch; the
 * per-launch overhead dominates, reproducing the paper's >10x
 * slowdown versus VersaPipe on Reyes.
 */

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/runtime.hh"
#include "core/stage_impl.hh"

namespace vp {

DpRunner::DpRunner(Simulator& sim, Device& dev, Host& host,
                   Pipeline& pipe, const PipelineConfig& cfg,
                   RunnerContext rc)
    : RunnerBase(sim, dev, host, pipe, cfg, rc)
{
    makeQueueSets(1);
    claimed_.assign(pipe.stageCount(), 0);
    // DP has no polling workers: redelivered items need a kernel
    // spawned for them explicitly.
    recovery_.setOnRedelivered([this](int s) {
        int unclaimed = static_cast<int>(queuedFor(s)) - claimed_[s];
        if (unclaimed > 0 && dev_.numOnlineSms() > 0)
            spawnKernel(s, unclaimed, false);
    });
}

void
DpRunner::onSmFailed(int sm)
{
    (void)sm;
    if (dev_.numOnlineSms() <= 0)
        return;
    // Respawn for anything queued but orphaned by the failure.
    for (int t = 0; t < pipe_.stageCount(); ++t) {
        int unclaimed = static_cast<int>(queuedFor(t)) - claimed_[t];
        if (unclaimed > 0) {
            ++faultStats_.degradeRelaunches;
            spawnKernel(t, unclaimed, false);
        }
    }
}

void
DpRunner::start(AppDriver& driver)
{
    host_.memcpy(driver.inputBytes(), [this] {
        for (int s = 0; s < pipe_.stageCount(); ++s) {
            int n = static_cast<int>(queuedFor(s));
            if (n > 0)
                spawnKernel(s, n, false);
        }
    });
}

void
DpRunner::spawnKernel(int s, int items, bool fromDevice)
{
    // Invariant: claimed_[t] counts queued items of stage t that
    // already have a kernel on the way.
    claimed_[s] += items;
    if (tracer_ && fromDevice)
        tracer_->instant(TraceKind::DpSpawn, 0, sim_.now(), s, items);

    StageBase& st = pipe_.stage(s);
    int cap = batchCapacity(s);
    int grid = (items + cap - 1) / cap;
    auto remaining = std::make_shared<int>(items);

    auto kernel = std::make_shared<Kernel>(
        st.name + (fromDevice ? "_dpsub" : "_dp"), st.resources,
        stageBlockThreads(s), grid,
        [this, s, cap, remaining](BlockContext& ctx) {
            if (*remaining <= 0) {
                ctx.exit();
                return;
            }
            int m = std::min(cap, *remaining);
            *remaining -= m;
            claimed_[s] -= m; // popped in the same instant below
            processBatch(ctx, queueSets_.front(), s, 0, m, [this, &ctx] {
                // Claim every unassigned queued item now, then pay
                // the device-side launch cost and spawn one
                // sub-kernel per item.
                std::vector<std::pair<int, int>> to_spawn;
                int spawns = 0;
                for (int t = 0; t < pipe_.stageCount(); ++t) {
                    int unclaimed =
                        static_cast<int>(queuedFor(t)) - claimed_[t];
                    if (unclaimed > 0) {
                        claimed_[t] += unclaimed;
                        to_spawn.emplace_back(t, unclaimed);
                        spawns += unclaimed;
                    }
                }
                if (spawns == 0) {
                    ctx.exit();
                    return;
                }
                Tick cost = spawns * dev_.config().dpLaunchCycles;
                ctx.delay(cost, [this, &ctx,
                                 to_spawn = std::move(to_spawn)] {
                    for (const auto& [t, n] : to_spawn) {
                        claimed_[t] -= n; // spawnKernel re-claims
                        for (int i = 0; i < n; ++i)
                            spawnKernel(t, 1, true);
                    }
                    ctx.exit();
                });
            });
        });
    if (evictable_) {
        // Blocks evicted before claiming their share leave `remaining`
        // nonzero at kernel completion; release those stale claims and
        // respawn for whatever is still queued.
        kernel->notifyOnComplete([this, s, remaining] {
            if (*remaining <= 0)
                return;
            claimed_[s] -= *remaining;
            *remaining = 0;
            int unclaimed =
                static_cast<int>(queuedFor(s)) - claimed_[s];
            if (unclaimed > 0 && dev_.numOnlineSms() > 0)
                spawnKernel(s, unclaimed, false);
        });
    }
    dev_.launch(dev_.createStream(), kernel);
}

} // namespace vp
