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
    if (!driver.replayable() || plan_ || recovery_ || obsCfg_ || serve_)
        return false;
    const Pipeline& pipe = driver.pipeline();
    for (int s = 0; s < pipe.stageCount(); ++s)
        if (pipe.stage(s).queueCapacity > 0)
            return false;
    return true;
}

void
Engine::requireTaskGraph(AppDriver& driver, const TaskGraph* capture,
                         const TaskGraph* replay) const
{
    VP_CHECK(canReplay(driver), ErrorCode::Config,
             "task-graph capture and replay need a replayable app, no "
             "bounded stage, and no fault plan, recovery policy, "
             "observability or serving session");
    const TaskGraph& graph = capture ? *capture : *replay;
    int stages = driver.pipeline().stageCount();
    VP_CHECK(graph.stageCount() == stages, ErrorCode::Config,
             "task graph spans " << graph.stageCount() << " stages, "
             << driver.name() << " has " << stages);
    VP_CHECK(!capture || (!capture->sealed() && capture->size() == 0),
             ErrorCode::Config,
             "task-graph capture needs an empty graph; this one is "
             << (capture->sealed() ? "sealed" : "already captured into"));
    VP_CHECK(!replay || replay->sealed(), ErrorCode::Config,
             "task-graph replay needs a sealed graph");
}

} // namespace vp
