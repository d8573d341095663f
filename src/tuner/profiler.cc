#include "tuner/profiler.hh"

#include "gpu/occupancy.hh"

namespace vp {

double
ProfileResult::workOf(const std::vector<int>& which) const
{
    double total = 0.0;
    for (int s : which) {
        VP_REQUIRE(s >= 0 && s < static_cast<int>(stages.size()),
                   "workOf: bad stage " << s);
        total += stages[s].totalWork;
    }
    return total;
}

ProfileResult
profileApp(Engine& engine, AppDriver& driver, TaskGraph* capture)
{
    Pipeline& pipe = driver.pipeline();
    RunResult run = engine.run(driver, makeMegakernelConfig(pipe),
                               capture);

    ProfileResult out;
    out.profileCycles = run.cycles;
    for (int s = 0; s < pipe.stageCount(); ++s) {
        StageProfile p;
        p.name = pipe.stage(s).name;
        int bt = pipe.stage(s).blockThreads;
        p.maxBlocksPerSm = maxBlocksPerSm(
            engine.deviceConfig(), pipe.stage(s).resources,
            bt > 0 ? bt : 256).blocksPerSm;
        p.items = run.stages[s].items;
        p.totalWork = run.stages[s].warpInsts;
        p.meanBatchWork = run.stages[s].batches > 0
            ? run.stages[s].warpInsts / run.stages[s].batches
            : 0.0;
        out.stages.push_back(std::move(p));
    }
    return out;
}

} // namespace vp
