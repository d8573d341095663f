/**
 * @file
 * Tests of the fault-injection subsystem and runtime recovery:
 * decision-oracle determinism, retry/backoff/dead-letter accounting,
 * watchdog stall detection on a wedged cyclic pipeline, the global
 * drain timeout, graceful SM degradation, and the zero-overhead
 * guarantee when injection is compiled in but disabled.
 */

#include <gtest/gtest.h>

#include <functional>
#include <limits>

#include "apps/raster/raster_app.hh"
#include "sim/fault.hh"
#include "toy_apps.hh"

using namespace vp;
using namespace vp::test;

namespace {

/** Fingerprint of everything a deterministic run must reproduce. */
struct RunFingerprint
{
    double cycles;
    std::uint64_t simEvents;
    RunOutcome outcome;
    std::uint64_t taskFaults;
    std::uint64_t tasksRetried;
    std::uint64_t deadLettered;
    std::uint64_t droppedPushes;
    std::uint64_t corruptedPushes;
    std::uint64_t slowdowns;
    int blocksEvicted;
    std::vector<std::uint64_t> stageItems;

    bool
    operator==(const RunFingerprint& o) const
    {
        return cycles == o.cycles && simEvents == o.simEvents
            && outcome == o.outcome && taskFaults == o.taskFaults
            && tasksRetried == o.tasksRetried
            && deadLettered == o.deadLettered
            && droppedPushes == o.droppedPushes
            && corruptedPushes == o.corruptedPushes
            && slowdowns == o.slowdowns
            && blocksEvicted == o.blocksEvicted
            && stageItems == o.stageItems;
    }
};

RunFingerprint
fingerprint(const RunResult& r)
{
    RunFingerprint f;
    f.cycles = r.cycles;
    f.simEvents = r.simEvents;
    f.outcome = r.outcome;
    f.taskFaults = r.faults.taskFaults;
    f.tasksRetried = r.faults.tasksRetried;
    f.deadLettered = r.faults.deadLettered;
    f.droppedPushes = r.faults.droppedPushes;
    f.corruptedPushes = r.faults.corruptedPushes;
    f.slowdowns = r.faults.slowdowns;
    f.blocksEvicted = r.faults.blocksEvicted;
    for (const StageRunStats& s : r.stages)
        f.stageItems.push_back(s.items);
    return f;
}

/**
 * Per-stage item conservation after a drained run with no push
 * faults and no block aborts: everything pushed into a stage's queue
 * was either processed, redelivered for retry, or dead-lettered.
 */
void
expectStageConservation(const RunResult& r)
{
    for (const StageRunStats& s : r.stages) {
        EXPECT_EQ(s.queue.pushes, s.queue.pops)
            << "queue `" << s.name << "` not drained";
        EXPECT_EQ(s.queue.pushes, s.items + s.retried + s.deadLettered)
            << "items unaccounted for in stage `" << s.name << "`";
    }
}

// ---------------------------------------------------------------- //
// Wedgeable cyclic pipeline: Spawn -> Bounce -> Spawn with a        //
// bounded bounce queue. Under EarlierStageFirst every persistent    //
// block prefers the (amply seeded) spawn queue, amplifies x2 into   //
// the tiny bounce queue, and parks in commit-wait — a guaranteed    //
// queue-full deadlock that only the watchdog can report.            //
// ---------------------------------------------------------------- //

struct CycleItem
{
    int value = 0;
    int hops = 0;
};

struct BounceStage;

struct SpawnStage : Stage<CycleItem>
{
    SpawnStage()
    {
        name = "spawn";
        threadNum = 256; // one item per block-batch
        retryable = true;
        resources.regsPerThread = 32;
        resources.codeBytes = 4000;
    }

    TaskCost
    cost(const CycleItem&) const override
    {
        TaskCost c;
        c.computeInsts = 200;
        c.memInsts = 20;
        return c;
    }

    void execute(ExecContext& ctx, CycleItem& item) override;
};

struct BounceStage : Stage<CycleItem>
{
    BounceStage()
    {
        name = "bounce";
        threadNum = 256;
        retryable = true;
        queueCapacity = 2; // x2 amplification wedges this queue
        resources.regsPerThread = 32;
        resources.codeBytes = 4000;
    }

    TaskCost
    cost(const CycleItem&) const override
    {
        TaskCost c;
        c.computeInsts = 200;
        c.memInsts = 20;
        return c;
    }

    void execute(ExecContext& ctx, CycleItem& item) override;
};

inline void
SpawnStage::execute(ExecContext& ctx, CycleItem& item)
{
    ctx.enqueue<BounceStage>(item);
    ctx.enqueue<BounceStage>(item);
}

inline void
BounceStage::execute(ExecContext& ctx, CycleItem& item)
{
    if (++item.hops < 3)
        ctx.enqueue<SpawnStage>(item);
}

class CyclicApp : public AppDriver
{
  public:
    explicit CyclicApp(int seeds = 512)
        : seeds_(seeds)
    {
        pipe_.addStage<SpawnStage>();
        pipe_.addStage<BounceStage>();
        pipe_.link<SpawnStage, BounceStage>();
        pipe_.link<BounceStage, SpawnStage>();
    }

    std::string name() const override { return "cyclic-toy"; }

    Pipeline& pipeline() override { return pipe_; }

    void reset() override {}

    void
    seedFlow(Seeder& seeder, int) override
    {
        std::vector<CycleItem> items;
        for (int i = 0; i < seeds_; ++i)
            items.push_back(CycleItem{i, 0});
        seeder.insert<SpawnStage>(std::move(items));
    }

    bool verify() override { return false; } // never drains cleanly

  private:
    Pipeline pipe_;
    int seeds_;
};

} // namespace

// ------------------------- decision oracle ---------------------- //

TEST(FaultInjector, SameSeedSameDecisions)
{
    FaultPlan plan;
    plan.seed = 42;
    plan.taskFailProb = 0.1;
    plan.pushDropProb = 0.05;
    FaultInjector a(plan);
    FaultInjector b(plan);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.fetchFaults(0, 0, 8, 100.0 * i),
                  b.fetchFaults(0, 0, 8, 100.0 * i));
        EXPECT_EQ(static_cast<int>(a.pushFault()),
                  static_cast<int>(b.pushFault()));
    }
}

TEST(FaultInjector, CorruptionDoesNotShiftDropDecisions)
{
    // The push-fault decision is a single partitioned draw: adding a
    // corruption band must not change which pushes are dropped.
    FaultPlan dropOnly;
    dropOnly.seed = 7;
    dropOnly.pushDropProb = 0.2;
    FaultPlan both = dropOnly;
    both.pushCorruptProb = 0.2;
    FaultInjector a(dropOnly);
    FaultInjector b(both);
    for (int i = 0; i < 2000; ++i) {
        PushFault fa = a.pushFault();
        PushFault fb = b.pushFault();
        EXPECT_EQ(fa == PushFault::Drop, fb == PushFault::Drop)
            << "drop decision " << i << " shifted";
    }
}

TEST(FaultInjector, ScriptedTriggersMatchAndExhaust)
{
    FaultPlan plan;
    ScriptedTaskFault t;
    t.atOrAfter = 1000.0;
    t.sm = 2;
    t.stage = 1;
    t.count = 3;
    plan.scripted.push_back(t);
    FaultInjector inj(plan);
    EXPECT_EQ(inj.fetchFaults(1, 2, 8, 500.0), 0);  // too early
    EXPECT_EQ(inj.fetchFaults(0, 2, 8, 2000.0), 0); // wrong stage
    EXPECT_EQ(inj.fetchFaults(1, 3, 8, 2000.0), 0); // wrong SM
    EXPECT_EQ(inj.fetchFaults(1, 2, 8, 2000.0), 3); // fires
    EXPECT_EQ(inj.fetchFaults(1, 2, 8, 3000.0), 0); // exhausted
}

TEST(FaultPlan, ValidateRejectsBadProbabilities)
{
    FaultPlan plan;
    plan.taskFailProb = -0.1;
    try {
        plan.validate();
        FAIL() << "should have thrown";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config);
    }
}

TEST(RecoveryConfig, ValidateRejectsBadBackoff)
{
    RecoveryConfig rc;
    rc.backoffFactor = 0.5;
    try {
        rc.validate();
        FAIL() << "should have thrown";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config);
    }
}

/** Expect @p fn to throw FatalError(Config); @p what names the case. */
template <typename Fn>
void
expectConfigError(Fn&& fn, const std::string& what)
{
    try {
        fn();
        ADD_FAILURE() << what << ": accepted";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config) << what;
    }
}

// Delays and event times become simulator events, whose times must
// be finite: an infinite one must fail validation with a typed error,
// not abort the run that reaches it.
TEST(FaultPlan, ValidateRejectsInfiniteDelays)
{
    const Tick inf = std::numeric_limits<Tick>::infinity();
    std::vector<std::pair<std::string, std::function<void(FaultPlan&)>>>
        cases = {
            {"faultDetectCycles",
             [&](FaultPlan& p) {
                 p.taskFailProb = 0.5;
                 p.faultDetectCycles = inf;
             }},
            {"taskSlowFactor",
             [&](FaultPlan& p) {
                 p.taskSlowProb = 0.5;
                 p.taskSlowFactor = inf;
             }},
            {"launchDelayCycles",
             [&](FaultPlan& p) {
                 p.launchDelayProb = 1.0;
                 p.launchDelayCycles = inf;
             }},
            {"SM event time",
             [&](FaultPlan& p) {
                 SmFaultEvent e;
                 e.time = inf;
                 p.smEvents.push_back(e);
             }},
        };
    for (auto& [what, mutate] : cases) {
        FaultPlan plan;
        mutate(plan);
        expectConfigError([&] { plan.validate(); }, what);
        LinearApp app(2, 64);
        Engine engine(DeviceConfig::k20c());
        engine.setFaultPlan(plan);
        expectConfigError(
            [&] { engine.run(app, makeMegakernelConfig(app.pipeline())); },
            what + " (run)");
    }
}

TEST(FaultPlan, ValidateRejectsInfiniteGroupEventTimes)
{
    const Tick inf = std::numeric_limits<Tick>::infinity();
    FaultPlan deviceKill;
    DeviceFaultEvent d;
    d.time = inf;
    d.device = 1;
    deviceKill.deviceEvents.push_back(d);
    FaultPlan linkCut;
    LinkFaultEvent l;
    l.time = inf;
    l.src = 0;
    l.dst = 1;
    linkCut.linkEvents.push_back(l);

    for (const auto& [what, plan] :
         {std::pair{std::string("device event time"), deviceKill},
          std::pair{std::string("link event time"), linkCut}}) {
        expectConfigError([&] { plan.validate(); }, what);
        LinearApp app(2, 64);
        Engine group(DeviceGroupConfig::homogeneous(DeviceConfig::k20c(), 2));
        group.setFaultPlan(plan);
        expectConfigError(
            [&] {
                group.runSharded(app, makeMegakernelConfig(app.pipeline()),
                                 ShardPlan::replicateAll(app.pipeline()));
            },
            what + " (run)");
    }
}

TEST(RecoveryConfig, ValidateRejectsInfiniteBackoff)
{
    const Tick inf = std::numeric_limits<Tick>::infinity();
    FaultPlan plan;
    plan.seed = 5;
    plan.taskFailProb = 0.5;
    std::vector<std::pair<std::string, std::function<void(RecoveryConfig&)>>>
        cases = {
            {"backoffBaseCycles and backoffCapCycles",
             [&](RecoveryConfig& rc) {
                 rc.backoffBaseCycles = inf;
                 rc.backoffCapCycles = inf;
             }},
            {"backoffFactor",
             [&](RecoveryConfig& rc) {
                 rc.backoffFactor = inf;
                 rc.backoffCapCycles = inf;
             }},
        };
    for (auto& [what, mutate] : cases) {
        RecoveryConfig rc;
        mutate(rc);
        expectConfigError([&] { rc.validate(); }, what);
        LinearApp app(2, 64);
        Engine engine(DeviceConfig::k20c());
        engine.setFaultPlan(plan);
        engine.setRecovery(rc);
        expectConfigError(
            [&] { engine.run(app, makeMegakernelConfig(app.pipeline())); },
            what + " (run)");
    }
}

// Finite fields can still double past the largest double when
// nothing caps the backoff: 2000 retries overflow the default 500
// cycles at factor 2 after about 1,017 doublings.
TEST(RecoveryConfig, ValidateRejectsABackoffThatOverflows)
{
    const Tick inf = std::numeric_limits<Tick>::infinity();
    RecoveryConfig rc;
    rc.backoffCapCycles = inf;
    rc.maxRetries = 2000;
    expectConfigError([&] { rc.validate(); }, "2000 retries");
    FaultPlan plan;
    plan.seed = 5;
    plan.taskFailProb = 0.5;
    LinearApp app(2, 64);
    Engine engine(DeviceConfig::k20c());
    engine.setFaultPlan(plan);
    engine.setRecovery(rc);
    expectConfigError(
        [&] { engine.run(app, makeMegakernelConfig(app.pipeline())); },
        "2000 retries (run)");

    // A factor of 1 never grows; few retries stay finite.
    rc.backoffFactor = 1.0;
    EXPECT_NO_THROW(rc.validate());
    EXPECT_EQ(rc.backoffFor(2000), 500.0);
    rc.backoffFactor = 2.0;
    rc.maxRetries = 3;
    EXPECT_NO_THROW(rc.validate());
    EXPECT_EQ(rc.backoffFor(3), 2000.0);
    rc.backoffBaseCycles = 0.0;
    rc.maxRetries = 2000;
    EXPECT_NO_THROW(rc.validate());
}

// +inf keeps meaning "never" where a run only compares against it.
TEST(RecoveryConfig, InfiniteWatchdogTimeoutAndTriggerMeanNever)
{
    const Tick inf = std::numeric_limits<Tick>::infinity();
    RecoveryConfig rc;
    rc.watchdogIntervalCycles = inf;
    rc.drainTimeoutCycles = inf;
    FaultPlan plan;
    ScriptedTaskFault never;
    never.atOrAfter = inf;
    plan.scripted.push_back(never);
    EXPECT_NO_THROW(rc.validate());
    EXPECT_NO_THROW(plan.validate());

    LinearApp app(2, 64);
    Engine engine(DeviceConfig::k20c());
    engine.setRecovery(rc);
    engine.setFaultPlan(plan);
    RunResult r = engine.run(app, makeMegakernelConfig(app.pipeline()));
    EXPECT_EQ(r.outcome, RunOutcome::Completed) << r.failureReason;
    EXPECT_EQ(r.faults.taskFaults, 0u);
}

TEST(RecoveryConfig, BackoffGrowsAndCaps)
{
    RecoveryConfig rc;
    rc.backoffBaseCycles = 500.0;
    rc.backoffFactor = 2.0;
    rc.backoffCapCycles = 1600.0;
    EXPECT_DOUBLE_EQ(rc.backoffFor(1), 500.0);
    EXPECT_DOUBLE_EQ(rc.backoffFor(2), 1000.0);
    EXPECT_DOUBLE_EQ(rc.backoffFor(3), 1600.0); // capped
    EXPECT_DOUBLE_EQ(rc.backoffFor(9), 1600.0);
}

// ------------------------- determinism -------------------------- //

TEST(FaultRuns, SameSeedSamePlanBitIdentical)
{
    FaultPlan plan;
    plan.seed = 11;
    plan.taskFailProb = 0.02;
    plan.taskSlowProb = 0.05;
    plan.pushDropProb = 0.01;
    plan.launchDelayProb = 0.2;

    Engine engine(DeviceConfig::k20c());
    engine.setFaultPlan(plan);
    engine.setRecovery(RecoveryConfig{});

    std::vector<PipelineConfig> configs;
    {
        LinearApp probe;
        configs.push_back(makeMegakernelConfig(probe.pipeline()));
        configs.push_back(makeKbkConfig());
        configs.push_back(makeFineConfig(probe.pipeline(),
                                         engine.deviceConfig()));
        configs.push_back(makeDynamicParallelismConfig());
    }
    for (const PipelineConfig& cfg : configs) {
        LinearApp app1(2, 64);
        LinearApp app2(2, 64);
        RunResult a = engine.run(app1, cfg);
        RunResult b = engine.run(app2, cfg);
        EXPECT_TRUE(fingerprint(a) == fingerprint(b))
            << "fault run not reproducible under " << a.configName;
        EXPECT_GT(a.faults.taskFaults, 0u) << a.configName;
    }
}

// ------------------------- retry/recovery ----------------------- //

TEST(FaultRuns, TransientFaultsRetryToCompletion)
{
    FaultPlan plan;
    plan.seed = 5;
    plan.taskFailProb = 0.05;

    RecoveryConfig rc;
    rc.maxRetries = 8; // ample budget: nothing should dead-letter

    Engine engine(DeviceConfig::k20c());
    engine.setFaultPlan(plan);
    engine.setRecovery(rc);

    for (int variant = 0; variant < 3; ++variant) {
        LinearApp app(2, 64);
        PipelineConfig cfg = variant == 0
            ? makeMegakernelConfig(app.pipeline())
            : variant == 1 ? makeKbkConfig()
                           : makeDynamicParallelismConfig();
        RunResult r = engine.run(app, cfg);
        EXPECT_TRUE(r.completed) << r.configName;
        EXPECT_EQ(r.outcome, RunOutcome::Completed) << r.configName;
        EXPECT_GT(r.faults.tasksRetried, 0u) << r.configName;
        EXPECT_EQ(r.faults.deadLettered, 0u) << r.configName;
        expectStageConservation(r);
    }
}

TEST(FaultRuns, RetryExhaustionDeadLetters)
{
    FaultPlan plan;
    plan.seed = 3;
    plan.taskFailProb = 1.0; // every fetch faults: nothing survives

    RecoveryConfig rc;
    rc.maxRetries = 2;
    rc.backoffBaseCycles = 100.0;

    LinearApp app(1, 16);
    Engine engine(DeviceConfig::k20c());
    engine.setFaultPlan(plan);
    engine.setRecovery(rc);
    RunResult r = engine.run(app, makeMegakernelConfig(app.pipeline()));

    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.outcome, RunOutcome::Degraded);
    // Every seeded item burns its full retry budget, then drops into
    // the dead-letter count — still 100% accounted for.
    EXPECT_EQ(r.faults.deadLettered, 16u);
    EXPECT_EQ(r.faults.tasksRetried, 32u); // 16 items x 2 retries
    EXPECT_EQ(r.stages[0].deadLettered, 16u);
    EXPECT_EQ(r.stages[2].items, 0u); // nothing reached the sink
    expectStageConservation(r);
}

TEST(FaultRuns, DroppedAndCorruptedPushesDegrade)
{
    FaultPlan plan;
    plan.seed = 9;
    plan.pushDropProb = 0.1;
    plan.pushCorruptProb = 0.1;

    LinearApp app(2, 64);
    Engine engine(DeviceConfig::k20c());
    engine.setFaultPlan(plan);
    RunResult r = engine.run(app, makeMegakernelConfig(app.pipeline()));

    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.outcome, RunOutcome::Degraded);
    EXPECT_GT(r.faults.droppedPushes, 0u);
    EXPECT_GT(r.faults.corruptedPushes, 0u);
    EXPECT_EQ(r.faults.deadLettered, r.faults.corruptedPushes);
    // Sink results + destroyed items cover every seeded item: the
    // linear pipeline is 1:1, so each lost push is one lost result.
    auto& sink = app.pipeline().stageAs<LinearSink>();
    EXPECT_EQ(sink.results.size() + r.faults.droppedPushes
                  + r.faults.corruptedPushes,
              static_cast<std::size_t>(app.totalItems()));
}

// Push costs never delay the pushing block, but detecting a corrupted
// push does: the same corruption rate costs more time when detection
// does.
TEST(FaultRuns, CorruptedPushDetectionHoldsTheBlock)
{
    FaultPlan plan;
    plan.seed = 9;
    plan.pushCorruptProb = 0.1;
    Engine engine(DeviceConfig::k20c());

    plan.faultDetectCycles = 0.0;
    engine.setFaultPlan(plan);
    LinearApp unpaid(2, 64);
    RunResult a =
        engine.run(unpaid, makeMegakernelConfig(unpaid.pipeline()));

    plan.faultDetectCycles = 5000.0;
    engine.setFaultPlan(plan);
    LinearApp paid(2, 64);
    RunResult b = engine.run(paid, makeMegakernelConfig(paid.pipeline()));

    EXPECT_GT(a.faults.corruptedPushes, 0u);
    EXPECT_GT(b.faults.corruptedPushes, 0u);
    EXPECT_GT(b.cycles, a.cycles + 5000.0);
}

TEST(FaultRuns, SlowdownsCountedAndCostTime)
{
    FaultPlan plan;
    plan.seed = 21;
    plan.taskSlowProb = 0.5;
    plan.taskSlowFactor = 8.0;

    LinearApp clean(2, 64), slowed(2, 64);
    Engine engine(DeviceConfig::k20c());
    RunResult base =
        engine.run(clean, makeMegakernelConfig(clean.pipeline()));
    engine.setFaultPlan(plan);
    RunResult r =
        engine.run(slowed, makeMegakernelConfig(slowed.pipeline()));

    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.faults.slowdowns, 0u);
    EXPECT_GT(r.cycles, base.cycles);
}

// ------------------------- watchdog / timeout ------------------- //

TEST(Watchdog, QueueFullDeadlockBecomesDiagnostic)
{
    CyclicApp app;
    PipelineConfig cfg = makeMegakernelConfig(app.pipeline());
    cfg.schedule = SchedulePolicy::EarlierStageFirst;

    RecoveryConfig rc;
    rc.watchdogIntervalCycles = 100000.0;
    rc.watchdogStallChecks = 3;

    Engine engine(DeviceConfig::k20c());
    engine.setRecovery(rc);
    RunResult r = engine.run(app, cfg);

    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.outcome, RunOutcome::Stalled);
    EXPECT_TRUE(r.faults.watchdogFired);
    EXPECT_GT(r.faults.backpressureWaits, 0u);
    // The diagnostic names the wedged queue and its depth.
    EXPECT_NE(r.failureReason.find("watchdog"), std::string::npos);
    EXPECT_NE(r.failureReason.find("bounce"), std::string::npos);
}

TEST(Watchdog, DrainTimeoutReportsStructuredFailure)
{
    CyclicApp app;
    PipelineConfig cfg = makeMegakernelConfig(app.pipeline());
    cfg.schedule = SchedulePolicy::EarlierStageFirst;

    RecoveryConfig rc;
    rc.watchdogIntervalCycles = 0.0; // watchdog off: timeout only
    rc.drainTimeoutCycles = 200000.0;

    Engine engine(DeviceConfig::k20c());
    engine.setRecovery(rc);
    RunResult r = engine.run(app, cfg);

    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.outcome, RunOutcome::DrainTimeout);
    EXPECT_FALSE(r.faults.watchdogFired);
    EXPECT_NE(r.failureReason.find("drain timeout"),
              std::string::npos);
}

TEST(Watchdog, HealthyRunUnperturbed)
{
    // The watchdog samples the runner between event slices; a healthy
    // run's event trace and cycle count must be identical with it on.
    LinearApp plain(2, 64), watched(2, 64);
    Engine engine(DeviceConfig::k20c());
    RunResult a =
        engine.run(plain, makeMegakernelConfig(plain.pipeline()));

    RecoveryConfig rc;
    rc.watchdogIntervalCycles = 5000.0; // many checkpoints
    engine.setRecovery(rc);
    RunResult b =
        engine.run(watched, makeMegakernelConfig(watched.pipeline()));

    EXPECT_TRUE(b.completed);
    EXPECT_EQ(a.simEvents, b.simEvents);
    EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
}

TEST(Watchdog, DisabledPlanIsZeroCost)
{
    // A compiled-in but empty plan must not change the simulation:
    // same events, same cycles (the bench overhead guarantee).
    LinearApp plain(2, 64), armed(2, 64);
    Engine engine(DeviceConfig::k20c());
    RunResult a =
        engine.run(plain, makeMegakernelConfig(plain.pipeline()));

    engine.setFaultPlan(FaultPlan{}); // nothing enabled
    RunResult b =
        engine.run(armed, makeMegakernelConfig(armed.pipeline()));

    EXPECT_TRUE(b.completed);
    EXPECT_EQ(b.outcome, RunOutcome::Completed);
    EXPECT_EQ(a.simEvents, b.simEvents);
    EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
}

// ------------------------- SM degradation ----------------------- //

TEST(SmFaults, PlanRejectsOutOfRangeSm)
{
    FaultPlan plan;
    SmFaultEvent e;
    e.time = 1000.0;
    e.sm = 999;
    plan.smEvents.push_back(e);

    LinearApp app(2, 64);
    Engine engine(DeviceConfig::k20c());
    engine.setFaultPlan(plan);
    try {
        engine.run(app, makeMegakernelConfig(app.pipeline()));
        FAIL() << "should have thrown";
    } catch (const FatalError& err) {
        EXPECT_EQ(err.code(), ErrorCode::Config);
    }
}

TEST(SmFaults, DegradeSlowsTheRun)
{
    LinearApp clean(4, 64), degraded(4, 64);
    Engine engine(DeviceConfig::k20c());
    PipelineConfig cfg = makeMegakernelConfig(clean.pipeline());
    RunResult base = engine.run(clean, cfg);

    FaultPlan plan;
    for (int sm = 0; sm < 13; ++sm) {
        SmFaultEvent e;
        e.time = base.cycles * 0.1;
        e.sm = sm;
        e.kind = SmFaultEvent::Kind::Degrade;
        e.factor = 0.25;
        plan.smEvents.push_back(e);
    }
    engine.setFaultPlan(plan);
    RunResult r = engine.run(degraded, cfg);

    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.faults.smsDegraded, 13);
    EXPECT_GT(r.cycles, base.cycles);
}

/**
 * The headline demo of the fault subsystem: a real app (the raster
 * pipeline) with one SM killed mid-run plus 1% transient task faults
 * completes with every task accounted for (completed or
 * dead-lettered), produces nonzero retry and degradation counters,
 * and replays bit-identically.
 */
TEST(SmFaults, RasterSurvivesSmKillMidRun)
{
    Engine engine(DeviceConfig::k20c());
    raster::RasterApp probe(raster::RasterParams::small());
    PipelineConfig cfg = makeMegakernelConfig(probe.pipeline());
    RunResult base = engine.run(probe, cfg);
    ASSERT_TRUE(base.completed);

    FaultPlan plan;
    plan.seed = 17;
    plan.taskFailProb = 0.01;
    SmFaultEvent kill;
    kill.time = base.cycles * 0.5;
    kill.sm = 0;
    kill.kind = SmFaultEvent::Kind::Kill;
    plan.smEvents.push_back(kill);

    RecoveryConfig rc;
    rc.maxRetries = 6;
    engine.setFaultPlan(plan);
    engine.setRecovery(rc);

    auto faultedRun = [&] {
        raster::RasterApp app(raster::RasterParams::small());
        return engine.run(app, cfg);
    };
    RunResult r = faultedRun();

    // Drained with 100% accounting: completed, or degraded with the
    // losses counted in the dead-letter ledger.
    ASSERT_TRUE(r.outcome == RunOutcome::Completed
                || r.outcome == RunOutcome::Degraded)
        << runOutcomeName(r.outcome) << ": " << r.failureReason;
    for (const StageRunStats& s : r.stages) {
        EXPECT_EQ(s.queue.pushes, s.queue.pops)
            << "queue `" << s.name << "` not drained";
    }
    if (r.outcome == RunOutcome::Degraded) {
        EXPECT_GT(r.faults.deadLettered + r.faults.droppedPushes, 0u);
    }

    // Nonzero fault, retry and degradation counters.
    EXPECT_EQ(r.faults.smsFailed, 1);
    EXPECT_GT(r.faults.blocksEvicted, 0);
    EXPECT_GT(r.faults.degradeRelaunches, 0u);
    EXPECT_GT(r.faults.tasksRetried, 0u);
    EXPECT_GT(r.cycles, base.cycles); // losing an SM costs time

    // Deterministic across repeated seeded runs.
    RunResult again = faultedRun();
    EXPECT_TRUE(fingerprint(r) == fingerprint(again))
        << "SM-kill run not reproducible";
}
