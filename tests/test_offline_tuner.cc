/**
 * @file
 * Unit tests for the offline auto-tuner.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>

#include "apps/registry.hh"
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

/** A LinearApp whose run number @p failAt throws from reset(). */
class FailingRunApp : public LinearApp
{
  public:
    explicit FailingRunApp(int failAt) : failAt_(failAt) {}

    void
    reset() override
    {
        if (++runs_ == failAt_)
            VP_FATAL("run " << runs_ << " fails");
    }

  private:
    int failAt_;
    int runs_ = 0;
};

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
    // A search bound below 1 leaves nothing to sweep. Both are
    // rejected before the profiling run, which here would throw an
    // untyped error.
    std::vector<TunerOptions> bad(5, quickOptions());
    bad[0].timeoutFactor = 0.5;
    bad[1].timeoutFactor = std::numeric_limits<double>::quiet_NaN();
    bad[2].search.maxConfigs = 0;
    bad[3].search.smCandidates = 0;
    bad[4].search.blockCandidates = -1;
    Engine engine(DeviceConfig::k20c());
    for (std::size_t i = 0; i < bad.size(); ++i) {
        FailingRunApp app(1);
        try {
            autotune(engine, app, bad[i]);
            ADD_FAILURE() << "accepted options " << i;
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::Config) << i << ": " << e.what();
        }
    }
}

// ------------------------------------------------------------------
// The adaptive controller belongs to the candidates, not the caller.

namespace {

AdaptiveConfig
callerAdaptive()
{
    AdaptiveConfig ac;
    ac.enabled = true;
    ac.epochCycles = 5000.0;
    return ac;
}

TunerOptions
adaptiveOptions()
{
    TunerOptions opts = quickOptions();
    AdaptiveConfig ac;
    ac.enabled = true;
    ac.epochCycles = 20000.0;
    opts.adaptive = ac;
    return opts;
}

void
expectCallerAdaptive(const Engine& engine)
{
    ASSERT_TRUE(engine.adaptive().has_value());
    EXPECT_TRUE(engine.adaptive()->enabled);
    EXPECT_EQ(engine.adaptive()->epochCycles, 5000.0);
}

} // namespace

TEST(OfflineTuner, RestoresTheCallersAdaptiveConfig)
{
    Engine engine(DeviceConfig::k20c());
    engine.setAdaptive(callerAdaptive());
    auto app = makeApp("pyramid", AppScale::Small);
    TunerResult r = autotune(engine, *app, adaptiveOptions());
    EXPECT_GT(r.evaluated, 0);
    expectCallerAdaptive(engine);

    // An engine the caller left disarmed comes back disarmed.
    Engine plain(DeviceConfig::k20c());
    autotune(plain, *app, adaptiveOptions());
    EXPECT_FALSE(plain.adaptive().has_value());
}

TEST(OfflineTuner, RestoresTheCallersAdaptiveConfigWhenACandidateThrows)
{
    // Run 1 profiles; every later run is a candidate, adaptive ones
    // included.
    for (int failAt = 2; failAt <= 8; ++failAt) {
        Engine engine(DeviceConfig::k20c());
        engine.setAdaptive(callerAdaptive());
        FailingRunApp app(failAt);
        EXPECT_THROW(autotune(engine, app, adaptiveOptions()),
                     FatalError)
            << failAt;
        expectCallerAdaptive(engine);
    }
}

TEST(OfflineTuner, CandidatesIgnoreTheCallersAdaptiveConfig)
{
    // Without TunerOptions::adaptive every candidate runs with the
    // controller cleared, as on a fresh engine. (A caller-armed
    // controller moves cfd's fine candidates.)
    auto app = makeApp("cfd", AppScale::Small);
    Engine armed(DeviceConfig::k20c());
    armed.setAdaptive(callerAdaptive());
    Engine fresh(DeviceConfig::k20c());
    TunerResult a = autotune(armed, *app, quickOptions());
    TunerResult b = autotune(fresh, *app, quickOptions());
    EXPECT_EQ(a.bestRun.configName, b.bestRun.configName);
    EXPECT_EQ(a.bestRun.cycles, b.bestRun.cycles);
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_FALSE(a.bestAdaptive);
    expectCallerAdaptive(armed);
}

// ------------------------------------------------------------------
// The shard-plan and adaptive dimensions of the serial sweep.

namespace {

/** What a sweep decided. */
struct SweepOutcome
{
    int evaluated = 0;
    int timedOut = 0;
    std::vector<std::pair<std::string, double>> finished;
    std::string best;
    std::string bestPlan;
    bool bestSharded = false;
    bool bestAdaptive = false;
    /** Candidates with a shard plan / the controller armed. */
    int sharded = 0;
    int adaptive = 0;
};

/**
 * The serial sweep recomputed from real runs in candidate order:
 * config x shard plan x controller, each under best-so-far times the
 * timeout factor.
 */
SweepOutcome
referenceSweep(Engine& engine, AppDriver& app, const TunerOptions& opts)
{
    Pipeline& pipe = app.pipeline();
    ProfileResult profile = profileApp(engine, app);
    SweepOutcome ref;
    double best = std::numeric_limits<double>::infinity();
    auto consider = [&](const PipelineConfig& cfg, const ShardPlan* plan,
                        bool adaptive) {
        double limit = ref.evaluated > ref.timedOut
            ? best * opts.timeoutFactor
            : std::numeric_limits<double>::infinity();
        ++ref.evaluated;
        ref.sharded += plan != nullptr;
        ref.adaptive += adaptive;
        if (adaptive)
            engine.setAdaptive(*opts.adaptive);
        else
            engine.clearAdaptive();
        auto run = plan ? engine.runShardedTimed(app, cfg, *plan, limit)
                        : engine.runTimed(app, cfg, limit);
        if (!run) {
            ++ref.timedOut;
            return;
        }
        std::string synopsis = cfg.describe(pipe);
        if (plan)
            synopsis += " shard=" + plan->describe();
        if (adaptive)
            synopsis += " +adaptive";
        ref.finished.emplace_back(synopsis, run->cycles);
        if (run->cycles < best) {
            best = run->cycles;
            ref.best = cfg.describe(pipe);
            ref.bestPlan = plan ? plan->describe() : ShardPlan{}.describe();
            ref.bestSharded = plan != nullptr;
            ref.bestAdaptive = adaptive;
        }
    };
    for (PipelineConfig cfg : enumerateConfigs(
             pipe, engine.deviceConfig(), profile, opts.search)) {
        cfg.onlineAdaptation = opts.onlineAdaptation;
        bool adaptable = adaptiveApplicable(cfg);
        if (cfg.top == PipelineConfig::Top::Groups) {
            for (const ShardPlan& plan :
                 defaultShardPlans(cfg, pipe, engine.deviceCount())) {
                consider(cfg, &plan, false);
                if (adaptable)
                    consider(cfg, &plan, true);
            }
        } else {
            consider(cfg, nullptr, false);
            if (adaptable)
                consider(cfg, nullptr, true);
        }
    }
    engine.clearAdaptive();
    return ref;
}

void
expectSweepDimensions(const std::string& name, bool replayed)
{
    SCOPED_TRACE(name);
    DeviceGroupConfig two = DeviceGroupConfig::homogeneous(
        DeviceConfig::byName("gtx1080"), 2);
    TunerOptions opts = adaptiveOptions();
    opts.search.maxConfigs = 40;

    Engine engine(two);
    auto app = makeApp(name, AppScale::Small);
    TunerResult got = autotune(engine, *app, opts);

    Engine refEngine(two);
    auto refApp = makeApp(name, AppScale::Small);
    SweepOutcome want = referenceSweep(refEngine, *refApp, opts);
    ASSERT_GT(want.sharded, 0);
    ASSERT_GT(want.adaptive, 0);

    Pipeline& pipe = app->pipeline();
    EXPECT_EQ(got.evaluated, want.evaluated);
    EXPECT_EQ(got.timedOut, want.timedOut);
    EXPECT_EQ(got.finished, want.finished);
    EXPECT_EQ(got.best.describe(pipe), want.best);
    EXPECT_EQ(got.bestPlan.describe(), want.bestPlan);
    EXPECT_EQ(got.bestSharded, want.bestSharded);
    EXPECT_EQ(got.bestAdaptive, want.bestAdaptive);
    EXPECT_EQ(got.replayed, replayed ? got.evaluated : 0);
    EXPECT_TRUE(got.bestRun.completed);
}

} // namespace

TEST(OfflineTuner, ShardAndAdaptiveSweepOfAReplayedApp)
{
    expectSweepDimensions("raster", true);
    expectSweepDimensions("pyramid", true);
}

TEST(OfflineTuner, ShardAndAdaptiveSweepOfARealPayloadApp)
{
    expectSweepDimensions("vidstream", false);
}

// ------------------------------------------------------------------
// What the parallel sweep's reduction rests on: a run finishes under
// a limit exactly when its cycles are at most that limit, and then it
// is the unlimited run.

namespace {

void
expectFinishesExactlyWithinItsCycles(const std::string& name,
                                     bool replayed)
{
    SCOPED_TRACE(name);
    constexpr double kNoLimit = std::numeric_limits<double>::infinity();
    DeviceConfig dev = DeviceConfig::k20c();
    Engine engine(dev);
    Engine group(DeviceGroupConfig::homogeneous(dev, 2));
    auto app = makeApp(name, AppScale::Small);
    Pipeline& pipe = app->pipeline();
    ASSERT_EQ(engine.canReplay(*app), replayed);
    std::optional<TaskGraph> graph;
    if (replayed)
        graph.emplace(pipe.stageCount());
    ProfileResult profile =
        profileApp(engine, *app, graph ? &*graph : nullptr);
    if (graph)
        graph->seal();
    const TaskGraph* replay = graph ? &*graph : nullptr;

    TunerOptions opts = adaptiveOptions();
    opts.search.maxConfigs = 25;
    int sharded = 0;
    int adaptive = 0;
    auto check = [&](const PipelineConfig& cfg, const ShardPlan* plan,
                     bool armed) {
        for (Engine* e : {&engine, &group}) {
            if (armed)
                e->setAdaptive(*opts.adaptive);
            else
                e->clearAdaptive();
        }
        auto timed = [&](double limit) {
            return plan ? group.runShardedTimed(*app, cfg, *plan, limit,
                                                replay)
                        : engine.runTimed(*app, cfg, limit, replay);
        };
        std::string what = cfg.describe(pipe)
            + (plan ? " shard=" + plan->describe() : "")
            + (armed ? " +adaptive" : "");
        auto free = timed(kNoLimit);
        ASSERT_TRUE(free) << what;
        double c = free->cycles;
        auto within = timed(c);
        ASSERT_TRUE(within) << what;
        EXPECT_EQ(within->cycles, c) << what;
        EXPECT_EQ(within->simEvents, free->simEvents) << what;
        EXPECT_FALSE(timed(std::nextafter(c, 0.0))) << what;
        sharded += plan != nullptr;
        adaptive += armed;
    };
    for (const PipelineConfig& cfg :
         enumerateConfigs(pipe, dev, profile, opts.search)) {
        for (bool armed : {false, true}) {
            if (armed && !adaptiveApplicable(cfg))
                continue;
            check(cfg, nullptr, armed);
            if (cfg.top != PipelineConfig::Top::Groups)
                continue;
            for (const ShardPlan& plan : defaultShardPlans(cfg, pipe, 2))
                check(cfg, &plan, armed);
        }
    }
    EXPECT_GT(sharded, 0);
    EXPECT_GT(adaptive, 0);
}

} // namespace

TEST(OfflineTuner, ARunFinishesUnderALimitExactlyWhenItsCyclesFit)
{
    expectFinishesExactlyWithinItsCycles("ldpc", true);
    expectFinishesExactlyWithinItsCycles("reyes", true);
    expectFinishesExactlyWithinItsCycles("vidstream", false);
}
