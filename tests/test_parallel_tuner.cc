/**
 * @file
 * Tests of the multi-threaded candidate sweep: autotuneParallel must
 * return autotune()'s TunerResult field for field, for any thread
 * count, because every worker's timeout limit is at least the serial
 * sweep's and the reduction reapplies the serial rule in job order.
 * That holds for the adaptive jobs too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>
#include <string>

#include "apps/registry.hh"
#include "toy_apps.hh"
#include "tuner/offline_tuner.hh"

using namespace vp;

namespace {

TunerResult
runSerial(const TunerOptions& opts = {})
{
    Engine engine(DeviceConfig::k20c());
    auto driver = makeApp("pyramid", AppScale::Small);
    return autotune(engine, *driver, opts);
}

TunerResult
runParallel(int threads)
{
    TunerOptions opts;
    opts.threads = threads;
    return autotuneParallel(
        DeviceConfig::k20c(),
        [] { return makeApp("pyramid", AppScale::Small); }, opts);
}

/** A small search; the adaptive controller joins it when
 *  @p adaptive. */
TunerOptions
smallSearch(bool adaptive)
{
    TunerOptions opts;
    opts.search.smCandidates = 4;
    opts.search.blockCandidates = 4;
    opts.search.maxConfigs = 40;
    if (adaptive) {
        AdaptiveConfig ac;
        ac.enabled = true;
        ac.epochCycles = 20000.0;
        opts.adaptive = ac;
    }
    return opts;
}

/** A parallel sweep's result against the serial one, field for
 *  field. */
void
expectSameResult(const TunerResult& got, const TunerResult& want,
                 const Pipeline& pipe)
{
    EXPECT_EQ(got.evaluated, want.evaluated);
    EXPECT_EQ(got.timedOut, want.timedOut);
    EXPECT_EQ(got.replayed, want.replayed);
    EXPECT_EQ(got.finished, want.finished);
    EXPECT_EQ(got.best.describe(pipe), want.best.describe(pipe));
    EXPECT_EQ(got.best.onlineAdaptation, want.best.onlineAdaptation);
    EXPECT_EQ(got.bestAdaptive, want.bestAdaptive);
    EXPECT_EQ(got.bestSharded, want.bestSharded);
    EXPECT_EQ(got.bestRun.configName, want.bestRun.configName);
    EXPECT_EQ(got.bestRun.cycles, want.bestRun.cycles);
    EXPECT_EQ(got.bestRun.ms, want.bestRun.ms);
    EXPECT_EQ(got.bestRun.simEvents, want.bestRun.simEvents);
    EXPECT_EQ(got.bestRun.polls, want.bestRun.polls);
    EXPECT_TRUE(got.bestRun.completed);
}

} // namespace

TEST(ParallelTuner, SingleThreadMatchesSerialExactly)
{
    TunerResult serial = runSerial();
    TunerResult par = runParallel(1);
    expectSameResult(par, serial,
                     makeApp("pyramid", AppScale::Small)->pipeline());
}

TEST(ParallelTuner, FourThreadsPickSerialBest)
{
    // Four workers run with looser limits than the serial sweep, and
    // the reduction still reports the serial bookkeeping.
    TunerResult serial = runSerial();
    TunerResult par = runParallel(4);
    expectSameResult(par, serial,
                     makeApp("pyramid", AppScale::Small)->pipeline());
}

TEST(ParallelTuner, ParallelSweepIsInternallyDeterministic)
{
    TunerResult a = runParallel(3);
    TunerResult b = runParallel(3);
    EXPECT_EQ(a.bestRun.cycles, b.bestRun.cycles);
    EXPECT_EQ(a.bestRun.configName, b.bestRun.configName);
}

TEST(ParallelTuner, BestRunVerifies)
{
    TunerResult par = runParallel(2);
    EXPECT_TRUE(par.bestRun.completed);
    EXPECT_GT(par.bestRun.cycles, 0.0);
    EXPECT_GT(par.bestRun.simEvents, 0u);
}

// ------------------------------------------------------------------
// Adaptive jobs: with TunerOptions::adaptive armed, each applicable
// configuration is tried again with the controller on.

namespace {

void
expectAdaptiveSweepMatchesSerial(const std::string& name)
{
    SCOPED_TRACE(name);
    TunerOptions opts = smallSearch(true);
    Engine engine(DeviceConfig::k20c());
    auto app = makeApp(name, AppScale::Small);
    Pipeline& pipe = app->pipeline();
    std::vector<PipelineConfig> configs = enumerateConfigs(
        pipe, engine.deviceConfig(), profileApp(engine, *app),
        opts.search);
    auto adaptive = std::count_if(configs.begin(), configs.end(),
                                  adaptiveApplicable);
    ASSERT_GT(adaptive, 0);
    TunerResult serial = autotune(engine, *app, opts);
    EXPECT_EQ(serial.evaluated,
              static_cast<int>(configs.size() + adaptive));

    auto factory = [&] { return makeApp(name, AppScale::Small); };
    for (int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        opts.threads = threads;
        expectSameResult(autotuneParallel(engine.deviceConfig(),
                                          factory, opts),
                         serial, pipe);
    }
}

} // namespace

TEST(ParallelTuner, AdaptiveSweepOfAReplayedAppMatchesSerial)
{
    expectAdaptiveSweepMatchesSerial("pyramid");
}

TEST(ParallelTuner, AdaptiveSweepOfARealPayloadAppMatchesSerial)
{
    expectAdaptiveSweepMatchesSerial("vidstream");
}

TEST(ParallelTuner, EveryAppMatchesSerialAtAnyThreadCount)
{
    for (const char* dev : {"k20c", "gtx1080"}) {
        for (const std::string& name : appNames()) {
            for (bool adaptive : {false, true}) {
                SCOPED_TRACE(name + "@" + dev
                             + (adaptive ? " +adaptive" : ""));
                TunerOptions opts = smallSearch(adaptive);
                Engine engine(DeviceConfig::byName(dev));
                auto app = makeApp(name, AppScale::Small);
                TunerResult serial = autotune(engine, *app, opts);
                for (int threads : {1, 2, 4}) {
                    SCOPED_TRACE(threads);
                    opts.threads = threads;
                    expectSameResult(
                        autotuneParallel(
                            engine.deviceConfig(),
                            [&] {
                                return makeApp(name, AppScale::Small);
                            },
                            opts),
                        serial, app->pipeline());
                }
            }
        }
    }
}

namespace {

/** A LinearApp that throws from reset() on every run but its first. */
class OneRunApp : public test::LinearApp
{
  public:
    void
    reset() override
    {
        if (++runs_ > 1)
            VP_FATAL("run " << runs_ << " fails");
    }

  private:
    int runs_ = 0;
};

} // namespace

TEST(ParallelTuner, ACandidateErrorReachesTheCaller)
{
    // The first worker's driver profiles, so each of its candidates
    // throws; every other worker's first candidate runs.
    for (int threads : {1, 2, 4}) {
        TunerOptions opts;
        opts.search.maxConfigs = 20;
        opts.threads = threads;
        EXPECT_THROW(autotuneParallel(
                         DeviceConfig::k20c(),
                         [] { return std::make_unique<OneRunApp>(); },
                         opts),
                     FatalError)
            << threads;
    }
}

// Extra workers build their drivers on their own threads. A factory
// that fails there fails the call with its own error.
TEST(ParallelTuner, AWorkerFactoryErrorReachesTheCaller)
{
    for (int threads : {2, 4}) {
        std::atomic<int> calls{0};
        auto throwing = [&calls]() -> std::unique_ptr<AppDriver> {
            if (calls++ > 0)
                throw std::runtime_error("no driver for this worker");
            return makeApp("pyramid", AppScale::Small);
        };
        TunerOptions opts = smallSearch(false);
        opts.threads = threads;
        try {
            autotuneParallel(DeviceConfig::k20c(), throwing, opts);
            ADD_FAILURE() << threads << ": a factory error was lost";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "no driver for this worker")
                << threads;
        }

        calls = 0;
        auto null = [&calls]() -> std::unique_ptr<AppDriver> {
            if (calls++ > 0)
                return nullptr;
            return makeApp("pyramid", AppScale::Small);
        };
        try {
            autotuneParallel(DeviceConfig::k20c(), null, opts);
            ADD_FAILURE() << threads << ": a null driver was accepted";
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "driver factory returned null"),
                      std::string::npos)
                << threads << ": " << e.what();
        }
    }
}

TEST(ParallelTuner, RejectsBadArguments)
{
    EXPECT_THROW(autotuneParallel(DeviceConfig::k20c(), nullptr),
                 FatalError);
    std::vector<TunerOptions> bad(5);
    bad[0].timeoutFactor = 0.5;
    bad[1].timeoutFactor = std::numeric_limits<double>::quiet_NaN();
    bad[2].search.maxConfigs = 0;
    bad[3].search.smCandidates = 0;
    bad[4].search.blockCandidates = -1;
    for (std::size_t i = 0; i < bad.size(); ++i) {
        try {
            autotuneParallel(
                DeviceConfig::k20c(),
                [] { return makeApp("pyramid", AppScale::Small); },
                bad[i]);
            ADD_FAILURE() << "accepted options " << i;
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::Config)
                << i << ": " << e.what();
        }
    }
}
