/**
 * @file
 * Unit tests for the offline auto-tuner.
 */

#include <gtest/gtest.h>

#include <limits>

#include "toy_apps.hh"
#include "tuner/offline_tuner.hh"

using namespace vp;
using namespace vp::test;

namespace {

TunerOptions
quickOptions()
{
    TunerOptions opts;
    opts.search.smCandidates = 4;
    opts.search.blockCandidates = 4;
    opts.search.maxConfigs = 120;
    return opts;
}

} // namespace

TEST(OfflineTuner, FindsAValidBestConfig)
{
    LinearApp app;
    Engine engine(DeviceConfig::k20c());
    auto result = autotune(engine, app, quickOptions());
    EXPECT_GT(result.evaluated, 5);
    EXPECT_NO_THROW(result.best.validate(app.pipeline(),
                                         DeviceConfig::k20c()));
    EXPECT_TRUE(result.bestRun.completed);
}

TEST(OfflineTuner, BestBeatsOrMatchesEveryFinishedCandidate)
{
    LinearApp app;
    Engine engine(DeviceConfig::k20c());
    auto result = autotune(engine, app, quickOptions());
    for (const auto& [name, cycles] : result.finished)
        EXPECT_LE(result.bestRun.cycles, cycles) << name;
}

TEST(OfflineTuner, TimeoutPrunesSlowCandidates)
{
    LinearApp app(4, 60);
    Engine engine(DeviceConfig::k20c());
    auto result = autotune(engine, app, quickOptions());
    // With timeout-execute, at least some slow candidates abort.
    EXPECT_GT(result.timedOut, 0);
    EXPECT_EQ(result.evaluated,
              result.timedOut
              + static_cast<int>(result.finished.size()));
}

TEST(OfflineTuner, BeatsOrMatchesBaselinesOnRecursiveApp)
{
    RecursiveApp app(24);
    Engine engine(DeviceConfig::k20c());
    auto result = autotune(engine, app, quickOptions());
    auto kbk = engine.run(app, makeKbkConfig());
    auto mk = engine.run(app, makeMegakernelConfig(app.pipeline()));
    EXPECT_LE(result.bestRun.cycles, kbk.cycles);
    EXPECT_LE(result.bestRun.cycles, mk.cycles * 1.001);
}

TEST(OfflineTuner, RerunOfBestReproducesTime)
{
    LinearApp app;
    Engine engine(DeviceConfig::k20c());
    auto result = autotune(engine, app, quickOptions());
    auto rerun = engine.run(app, result.best);
    EXPECT_DOUBLE_EQ(rerun.cycles, result.bestRun.cycles);
}

TEST(OfflineTuner, OnlineAdaptationFlagPropagates)
{
    LinearApp app;
    Engine engine(DeviceConfig::k20c());
    TunerOptions opts = quickOptions();
    opts.onlineAdaptation = true;
    auto result = autotune(engine, app, opts);
    EXPECT_TRUE(result.best.onlineAdaptation);
}

TEST(OfflineTuner, RejectsTimeoutFactorBelowOne)
{
    // A factor below 1 abandons a candidate faster than best-so-far
    // but slower than best * factor: the sweep could miss the optimum.
    LinearApp app;
    Engine engine(DeviceConfig::k20c());
    for (double factor :
         {0.5, std::numeric_limits<double>::quiet_NaN()}) {
        TunerOptions opts = quickOptions();
        opts.timeoutFactor = factor;
        try {
            autotune(engine, app, opts);
            ADD_FAILURE() << "accepted timeoutFactor " << factor;
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::Config) << factor;
        }
    }
}
