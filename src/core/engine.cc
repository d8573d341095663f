#include "core/engine.hh"

#include <limits>

namespace vp {

Engine::Engine(DeviceConfig cfg)
    : cfg_(std::move(cfg))
{
}

RunResult
Engine::run(AppDriver& driver, const PipelineConfig& config,
            TaskGraph* capture) const
{
    auto r = runGroup(driver, config, nullptr,
                      std::numeric_limits<double>::infinity(), capture,
                      nullptr);
    VP_ASSERT(r.has_value(), "untimed run reported a timeout");
    return *r;
}

std::optional<RunResult>
Engine::runTimed(AppDriver& driver, const PipelineConfig& config,
                 double cycleLimit, const TaskGraph* replay) const
{
    return runGroup(driver, config, nullptr, cycleLimit, nullptr,
                    replay);
}

RunResult
Engine::runSharded(AppDriver& driver, const PipelineConfig& config,
                   const ShardPlan& plan) const
{
    auto r = runShardedTimed(driver, config, plan,
                             std::numeric_limits<double>::infinity());
    VP_ASSERT(r.has_value(), "untimed sharded run reported a timeout");
    return *r;
}

std::optional<RunResult>
Engine::runShardedTimed(AppDriver& driver,
                        const PipelineConfig& config,
                        const ShardPlan& plan, double cycleLimit,
                        const TaskGraph* replay) const
{
    VP_CHECK(group_.has_value(), ErrorCode::Config,
             "runSharded requires an Engine built from a "
             "DeviceGroupConfig");
    return runGroup(driver, config, &plan, cycleLimit, nullptr, replay);
}

bool
Engine::canReplay(AppDriver& driver) const
{
    if (!driver.keyedItems() || plan_ || recovery_ || obsCfg_ || serve_)
        return false;
    const Pipeline& pipe = driver.pipeline();
    for (int s = 0; s < pipe.stageCount(); ++s)
        if (pipe.stage(s).queueCapacity > 0)
            return false;
    return true;
}

void
Engine::requireTaskGraph(AppDriver& driver, const TaskGraph& graph) const
{
    VP_CHECK(canReplay(driver), ErrorCode::Config,
             "task-graph capture and replay need an app that declares "
             "keyed items, no bounded stage, and no fault plan, "
             "recovery policy, observability or serving session");
    const Pipeline& pipe = driver.pipeline();
    VP_CHECK(graph.stageCount() == pipe.stageCount(), ErrorCode::Config,
             "task graph spans " << graph.stageCount() << " stages, "
             << driver.name() << " has " << pipe.stageCount());
    for (int s = 0; s < pipe.stageCount(); ++s)
        VP_CHECK(pipe.stage(s).keyable(), ErrorCode::Config,
                 driver.name() << " declares keyed items, but the items "
                 "of stage `" << pipe.stage(s).name << "` have no byte "
                 "key (padding or floating-point members)");
}

} // namespace vp
