/**
 * @file
 * Tests of the multi-threaded candidate sweep: the parallel tuner
 * must pick a configuration bit-identical to the serial sweep's, for
 * any thread count, because per-candidate runs are deterministic and
 * the arg-min reduction is serialized in candidate order. That holds
 * for the adaptive jobs too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "apps/registry.hh"
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

} // namespace

TEST(ParallelTuner, SingleThreadMatchesSerialExactly)
{
    TunerResult serial = runSerial();
    TunerResult par = runParallel(1);
    EXPECT_EQ(par.bestRun.cycles, serial.bestRun.cycles);
    EXPECT_EQ(par.bestRun.configName, serial.bestRun.configName);
    EXPECT_EQ(par.evaluated, serial.evaluated);
    // With one worker, the cutoff sequence is the serial one, so
    // even the pruning bookkeeping coincides.
    EXPECT_EQ(par.timedOut, serial.timedOut);
    ASSERT_EQ(par.finished.size(), serial.finished.size());
    for (std::size_t i = 0; i < par.finished.size(); ++i) {
        EXPECT_EQ(par.finished[i].first, serial.finished[i].first);
        EXPECT_EQ(par.finished[i].second, serial.finished[i].second);
    }
}

TEST(ParallelTuner, FourThreadsPickSerialBest)
{
    TunerResult serial = runSerial();
    TunerResult par = runParallel(4);
    // Bit-identical winner: same cycles, same configuration, same
    // device-time conversion.
    EXPECT_EQ(par.bestRun.cycles, serial.bestRun.cycles);
    EXPECT_EQ(par.bestRun.ms, serial.bestRun.ms);
    EXPECT_EQ(par.bestRun.configName, serial.bestRun.configName);
    EXPECT_EQ(par.evaluated, serial.evaluated);
    // Interleaving can only let MORE candidates finish (cutoffs
    // tighten later than in the serial sweep), never fewer.
    EXPECT_LE(par.timedOut, serial.timedOut);
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
    TunerOptions opts;
    opts.search.smCandidates = 4;
    opts.search.blockCandidates = 4;
    opts.search.maxConfigs = 40;
    AdaptiveConfig ac;
    ac.enabled = true;
    ac.epochCycles = 20000.0;
    opts.adaptive = ac;

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
    opts.threads = 1;
    TunerResult one = autotuneParallel(engine.deviceConfig(), factory,
                                       opts);
    EXPECT_EQ(one.evaluated, serial.evaluated);
    EXPECT_EQ(one.timedOut, serial.timedOut);
    EXPECT_EQ(one.finished, serial.finished);
    EXPECT_EQ(one.best.describe(pipe), serial.best.describe(pipe));
    EXPECT_EQ(one.bestAdaptive, serial.bestAdaptive);
    EXPECT_EQ(one.replayed, serial.replayed);

    opts.threads = 4;
    TunerResult four = autotuneParallel(engine.deviceConfig(), factory,
                                        opts);
    EXPECT_EQ(four.evaluated, serial.evaluated);
    EXPECT_EQ(four.best.describe(pipe), serial.best.describe(pipe));
    EXPECT_EQ(four.bestAdaptive, serial.bestAdaptive);
    EXPECT_EQ(four.bestRun.cycles, serial.bestRun.cycles);
}

} // namespace

TEST(ParallelTuner, AdaptiveSweepOfAReplayedAppMatchesSerial)
{
    expectAdaptiveSweepMatchesSerial("pyramid");
}

TEST(ParallelTuner, AdaptiveSweepOfARealPayloadAppMatchesSerial)
{
    expectAdaptiveSweepMatchesSerial("reyes");
}

TEST(ParallelTuner, RejectsBadArguments)
{
    EXPECT_THROW(autotuneParallel(DeviceConfig::k20c(), nullptr),
                 FatalError);
    for (double factor :
         {0.5, std::numeric_limits<double>::quiet_NaN()}) {
        TunerOptions opts;
        opts.timeoutFactor = factor;
        try {
            autotuneParallel(
                DeviceConfig::k20c(),
                [] { return makeApp("pyramid", AppScale::Small); },
                opts);
            ADD_FAILURE() << "accepted timeoutFactor " << factor;
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::Config) << factor;
        }
    }
}
