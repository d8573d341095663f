/**
 * @file
 * Tuner replay (docs/MODEL.md, "Tuner replay"): a run that replays
 * the captured task graph of a replayable app must equal the real run
 * of every candidate the tuner could try, records are linked by
 * lineage whatever the items hold, and a graph used the wrong way is
 * refused before any stage runs. Keyed joins (core/join.hh) run their
 * continuation once, in the last arrival's task, on every schedule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "apps/ldpc/ldpc_app.hh"
#include "apps/registry.hh"
#include "tuner/offline_tuner.hh"

using namespace vp;

namespace {

constexpr double kNoLimit = std::numeric_limits<double>::infinity();

/** The search options of fig11 (bench::versapipeConfig). */
SearchOptions
fig11Search()
{
    SearchOptions s;
    s.smCandidates = 5;
    s.blockCandidates = 6;
    s.maxConfigs = 400;
    return s;
}

/** A replayed run against the real run of the same candidate. */
void
expectSameRun(const RunResult& real, const RunResult& rep,
              const std::string& what)
{
    ASSERT_TRUE(real.completed) << what;
    EXPECT_EQ(rep.cycles, real.cycles) << what;
    EXPECT_EQ(rep.simEvents, real.simEvents) << what;
    EXPECT_EQ(rep.polls, real.polls) << what;
    ASSERT_EQ(rep.stages.size(), real.stages.size()) << what;
    for (std::size_t s = 0; s < real.stages.size(); ++s) {
        const StageRunStats& a = real.stages[s];
        const StageRunStats& b = rep.stages[s];
        EXPECT_EQ(b.items, a.items) << what << " stage " << s;
        EXPECT_EQ(b.batches, a.batches) << what << " stage " << s;
        EXPECT_EQ(b.warpInsts, a.warpInsts) << what << " stage " << s;
        EXPECT_EQ(b.execCycles, a.execCycles) << what << " stage " << s;
    }
}

/** Capture @p app's task graph from the profiling run on @p engine:
 *  one record per processed item. */
std::unique_ptr<TaskGraph>
capture(Engine& engine, AppDriver& app, ProfileResult& profile)
{
    auto graph = std::make_unique<TaskGraph>(
        app.pipeline().stageCount());
    profile = profileApp(engine, app, graph.get());
    graph->seal();
    std::uint64_t items = 0;
    for (const StageProfile& s : profile.stages)
        items += s.items;
    EXPECT_EQ(graph->size(), items) << app.name();
    return graph;
}

} // namespace

namespace {

/** One run of the lane: a candidate, on the 2-device group under a
 *  shard plan or on the single device. */
struct LaneRun
{
    PipelineConfig config;
    std::optional<ShardPlan> plan;
    std::string what;
    std::optional<RunResult> real, rep;
};

/**
 * The real and the replayed run of every entry of @p lane, over up
 * to four threads: each has its own app, and all replay @p graph.
 */
void
runLane(const std::string& name, const Engine& engine,
        const Engine& group, const TaskGraph& graph,
        std::vector<LaneRun>& lane)
{
    std::atomic<std::size_t> next{0};
    std::mutex errMutex;
    std::exception_ptr error;
    auto worker = [&] {
        try {
            auto app = makeApp(name, AppScale::Small);
            for (std::size_t i; (i = next++) < lane.size();) {
                LaneRun& r = lane[i];
                if (r.plan) {
                    r.real = group.runShardedTimed(*app, r.config,
                                                   *r.plan, kNoLimit);
                    r.rep = group.runShardedTimed(
                        *app, r.config, *r.plan, kNoLimit, &graph);
                } else {
                    r.real = engine.runTimed(*app, r.config, kNoLimit);
                    r.rep = engine.runTimed(*app, r.config, kNoLimit,
                                            &graph);
                }
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(errMutex);
            error = std::current_exception();
            next = lane.size();
        }
    };
    unsigned threads = std::clamp(std::thread::hardware_concurrency(),
                                  1u, 4u);
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread& t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace

TEST(Replay, EveryCandidateMatchesItsRealRun)
{
    int runs = 0;
    int rtcGroups = 0; // inline chains: replay recurses through them
    for (const char* dev : {"k20c", "gtx1080"}) {
        DeviceConfig cfg = DeviceConfig::byName(dev);
        Engine engine(cfg);
        Engine group(DeviceGroupConfig::homogeneous(cfg, 2));
        for (const char* name : {"cfd", "ldpc", "raster", "pyramid",
                                 "facedetect", "reyes"}) {
            auto app = makeApp(name, AppScale::Small);
            ASSERT_TRUE(engine.canReplay(*app)) << name;
            ProfileResult profile;
            auto graph = capture(engine, *app, profile);
            Pipeline& pipe = app->pipeline();
            std::vector<LaneRun> lane;
            for (const PipelineConfig& c : enumerateConfigs(
                     pipe, cfg, profile, fig11Search())) {
                std::string what = std::string(name) + "@" + dev + " "
                    + c.describe(pipe);
                lane.push_back({c, std::nullopt, what, {}, {}});
                for (const StageGroup& g : c.groups)
                    rtcGroups += g.model == ExecModel::RTC;
                if (c.top != PipelineConfig::Top::Groups)
                    continue;
                for (const ShardPlan& plan :
                     defaultShardPlans(c, pipe, 2))
                    lane.push_back({c, plan,
                                    what + " shard=" + plan.describe(),
                                    {}, {}});
            }
            runLane(name, engine, group, *graph, lane);
            for (const LaneRun& r : lane) {
                ASSERT_TRUE(r.real && r.rep) << r.what;
                expectSameRun(*r.real, *r.rep, r.what);
                ++runs;
            }
        }
    }
    EXPECT_GT(runs, 3500);
    EXPECT_GT(rtcGroups, 0);
}

TEST(Replay, AdaptiveCandidatesMatchTheirRealRuns)
{
    // The controller migrates blocks between a fine group's stages
    // mid-run; replayed tasks must see the same schedule.
    Engine engine(DeviceConfig::k20c());
    AdaptiveConfig ac;
    ac.enabled = true;
    ac.epochCycles = 20000.0;
    engine.setAdaptive(ac);
    for (const char* name :
         {"cfd", "ldpc", "raster", "pyramid", "facedetect", "reyes"}) {
        auto app = makeApp(name, AppScale::Small);
        ProfileResult profile;
        auto graph = capture(engine, *app, profile);
        Pipeline& pipe = app->pipeline();
        int adaptive = 0;
        for (const PipelineConfig& c : enumerateConfigs(
                 pipe, engine.deviceConfig(), profile, fig11Search())) {
            if (!adaptiveApplicable(c))
                continue;
            std::string what = std::string(name) + " " + c.describe(pipe);
            auto real = engine.runTimed(*app, c, kNoLimit);
            auto rep = engine.runTimed(*app, c, kNoLimit, graph.get());
            ASSERT_TRUE(real && rep) << what;
            expectSameRun(*real, *rep, what);
            ++adaptive;
        }
        EXPECT_GT(adaptive, 0) << name;
    }
}

TEST(Replay, SweepsOfKeyedAppsReplayAndEndOnARealRun)
{
    TunerOptions opts;
    opts.search.smCandidates = 3;
    opts.search.blockCandidates = 3;
    opts.search.maxConfigs = 60;
    for (const std::string& name : appNames()) {
        SCOPED_TRACE(name);
        bool replayed = name != "vidstream";
        TunerResult r = autotuneParallel(
            DeviceConfig::k20c(),
            [&] { return makeApp(name, AppScale::Small); }, opts);
        EXPECT_EQ(r.replayed, replayed ? r.evaluated : 0);
        EXPECT_TRUE(r.bestRun.completed);
        EXPECT_EQ(r.bestRun.outcome, RunOutcome::Completed);
        // bestRun is a real run of the winner: a fresh one repeats it.
        Engine engine(DeviceConfig::k20c());
        auto app = makeApp(name, AppScale::Small);
        RunResult again = engine.run(*app, r.best);
        EXPECT_EQ(again.cycles, r.bestRun.cycles);
        EXPECT_EQ(again.simEvents, r.bestRun.simEvents);
        EXPECT_EQ(again.polls, r.bestRun.polls);
    }
}

TEST(Replay, ParallelWorkersShareOneGraph)
{
    auto sweep = [](int threads) {
        TunerOptions opts;
        opts.search.smCandidates = 5;
        opts.search.blockCandidates = 6;
        opts.search.maxConfigs = 400;
        opts.threads = threads;
        return autotuneParallel(
            DeviceConfig::k20c(),
            [] { return makeApp("ldpc", AppScale::Small); }, opts);
    };
    TunerResult one = sweep(1);
    TunerResult four = sweep(4);
    EXPECT_GT(one.replayed, 0);
    EXPECT_EQ(four.replayed, one.replayed);
    EXPECT_EQ(four.best.describe(makeApp("ldpc", AppScale::Small)
                                     ->pipeline()),
              one.best.describe(makeApp("ldpc", AppScale::Small)
                                    ->pipeline()));
    EXPECT_EQ(four.bestRun.configName, one.bestRun.configName);
    EXPECT_EQ(four.bestRun.cycles, one.bestRun.cycles);
    EXPECT_EQ(four.bestRun.simEvents, one.bestRun.simEvents);
    EXPECT_EQ(four.bestRun.polls, one.bestRun.polls);
    EXPECT_TRUE(four.bestRun.completed);
}

TEST(Replay, DeclinedWhereARunReadsAppState)
{
    auto app = makeApp("ldpc", AppScale::Small);
    Engine plain(DeviceConfig::k20c());
    EXPECT_TRUE(plain.canReplay(*app));

    Engine observed(DeviceConfig::k20c());
    observed.setObservability(ObsConfig{});
    EXPECT_FALSE(observed.canReplay(*app));

    Engine recovering(DeviceConfig::k20c());
    recovering.setRecovery(RecoveryConfig{});
    EXPECT_FALSE(recovering.canReplay(*app));

    Engine faulted(DeviceConfig::k20c());
    faulted.setFaultPlan(FaultPlan{});
    EXPECT_FALSE(faulted.canReplay(*app));

    // A bounded stage reads queue state on the instrumented path.
    app->pipeline().stage(1).queueCapacity = 64;
    EXPECT_FALSE(plain.canReplay(*app));

    // The declined sweep runs every candidate on the payload.
    TunerOptions opts;
    opts.search.smCandidates = 2;
    opts.search.blockCandidates = 2;
    opts.search.maxConfigs = 12;
    auto fresh = makeApp("ldpc", AppScale::Small);
    TunerResult r = autotune(observed, *fresh, opts);
    EXPECT_EQ(r.replayed, 0);
    EXPECT_TRUE(r.bestRun.completed);

    // Replay where it would be unsound is an error, not a fallback.
    ProfileResult profile;
    auto graph = capture(plain, *fresh, profile);
    try {
        observed.runTimed(*fresh, makeMegakernelConfig(
                                      fresh->pipeline()),
                          kNoLimit, graph.get());
        ADD_FAILURE() << "replayed under observability";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config) << e.what();
    }
}

TEST(Replay, LookupMissIsAnError)
{
    // A graph of 12 frames cannot stand in for 13.
    Engine engine(DeviceConfig::k20c());
    ldpc::LdpcParams p = ldpc::LdpcParams::small();
    ldpc::LdpcApp twelve(p);
    p.frames += 1;
    ldpc::LdpcApp thirteen(p);
    ProfileResult profile;
    auto graph = capture(engine, twelve, profile);
    try {
        engine.runTimed(thirteen,
                        makeMegakernelConfig(thirteen.pipeline()),
                        kNoLimit, graph.get());
        ADD_FAILURE() << "replayed an item the graph never saw";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config) << e.what();
    }
}

TEST(Replay, KbkFlowsReplayTheirOwnSeeds)
{
    // KBK seeds flow by flow, one after another or in streams; each
    // flow's seeds must find the records the capture gave that flow.
    for (const char* dev : {"k20c", "gtx1080"}) {
        Engine engine(DeviceConfig::byName(dev));
        for (const char* name : {"pyramid", "facedetect"}) {
            auto app = makeApp(name, AppScale::Small);
            ASSERT_GT(app->flowCount(), 1) << name;
            ProfileResult profile;
            auto graph = capture(engine, *app, profile);
            for (const PipelineConfig& c :
                 {makeKbkConfig(), makeKbkStreamConfig(2),
                  makeKbkStreamConfig(4)}) {
                std::string what = std::string(name) + "@" + dev + " "
                    + c.describe(app->pipeline());
                auto real = engine.runTimed(*app, c, kNoLimit);
                auto rep = engine.runTimed(*app, c, kNoLimit, graph.get());
                ASSERT_TRUE(real && rep) << what;
                expectSameRun(*real, *rep, what);
            }
        }
    }
}

// ------------------------------------------------------------------
// Inline chains sum their costs in enqueue order.

namespace {

struct ChainItem
{
    std::int32_t id;
};

/**
 * Stage @p I of a three-stage linear chain. Costs are fractional and
 * stages widen (1, 8, 64 threads), so an inline chain's cost sum
 * depends on its order down to the last bit.
 */
template <int I>
struct ChainStage : Stage<ChainItem>
{
    ChainStage()
    {
        name = "chain" + std::to_string(I);
        threadNum = 1 << (3 * I);
    }

    TaskCost
    cost(const ChainItem& item) const override
    {
        TaskCost c;
        c.computeInsts = 10.1 + 0.37 * item.id + I;
        c.memInsts = 3.3 + 0.11 * I;
        c.l1HitRate = 0.3 + 0.2 * I;
        return c;
    }

    void
    execute(ExecContext& ctx, ChainItem& item) override
    {
        if constexpr (I < 2)
            ctx.enqueue<ChainStage<I + 1>>(item);
    }
};

class ChainApp : public AppDriver
{
  public:
    ChainApp()
    {
        pipe_.addStage<ChainStage<0>>();
        pipe_.addStage<ChainStage<1>>();
        pipe_.addStage<ChainStage<2>>();
        pipe_.link<ChainStage<0>, ChainStage<1>>();
        pipe_.link<ChainStage<1>, ChainStage<2>>();
    }

    std::string name() const override { return "chain-toy"; }
    Pipeline& pipeline() override { return pipe_; }
    void reset() override {}
    bool replayable() const override { return true; }

    void
    seedFlow(Seeder& seeder, int) override
    {
        for (std::int32_t i = 0; i < 64; ++i)
            seeder.insert<ChainStage<0>>(ChainItem{i});
    }

  private:
    Pipeline pipe_;
};

} // namespace

TEST(Replay, InlineChainsSumCostsInEnqueueOrder)
{
    ChainApp app;
    Engine engine(DeviceConfig::k20c());
    ProfileResult profile;
    auto graph = capture(engine, app, profile);
    Pipeline& pipe = app.pipeline();
    for (const PipelineConfig& c :
         {makeRtcConfig(pipe), makeMegakernelConfig(pipe),
          makeKbkConfig()}) {
        auto real = engine.runTimed(app, c, kNoLimit);
        auto rep = engine.runTimed(app, c, kNoLimit, graph.get());
        ASSERT_TRUE(real && rep);
        expectSameRun(*real, *rep, c.describe(pipe));
    }
}

// ------------------------------------------------------------------
// Keyed joins: siblings arrive in any order, the last arrival's task
// runs the continuation, and a replayed run counts arrivals itself.

namespace {

/** Part `part` of group `group` (-1: the group itself). */
struct PartItem
{
    std::int32_t group;
    std::int32_t part;
};

class JoinToyApp;

/** One fixed-cost stage of the join toy; Run does its work. */
template <int I>
struct JoinStage : Stage<PartItem>
{
    JoinStage(JoinToyApp& app, const char* n, int threads)
        : app_(app)
    {
        name = n;
        threadNum = threads;
    }

    TaskCost
    cost(const PartItem& item) const override
    {
        TaskCost c;
        c.computeInsts = 40.3 + 13.1 * item.part + 7.7 * I;
        c.memInsts = 5.0 + I;
        return c;
    }

    void execute(ExecContext& ctx, PartItem& item) override;

    JoinToyApp& app_;
};

/** Fans a group out to its parts: even ones straight to Part, odd
 *  ones through Detour, so the schedule decides which arrives last. */
using Split = JoinStage<0>;
using Detour = JoinStage<1>;
/** Arrives at its group's join. */
using Part = JoinStage<2>;
/** The continuation's child: one per group, four threads wide. */
using Done = JoinStage<3>;

class JoinToyApp : public AppDriver
{
  public:
    static constexpr int kGroups = 12;

    /** Each group's join expects @p slack fewer arrivals than it has
     *  parts. */
    explicit JoinToyApp(int slack = 0)
    {
        pipe_.addStage<Split>(*this, "split", 1);
        pipe_.addStage<Detour>(*this, "detour", 1);
        pipe_.addStage<Part>(*this, "part", 1);
        pipe_.addStage<Done>(*this, "done", 4);
        pipe_.link<Split, Part>();
        pipe_.link<Split, Detour>();
        pipe_.link<Detour, Part>();
        pipe_.link<Part, Done>();
        join = pipe_.addJoin<std::int32_t>(
            "parts",
            [slack](std::int32_t g) { return partsOf(g) - slack; },
            [](ExecContext& ctx, std::int32_t g) {
                ctx.enqueue<Done>(PartItem{g, -1});
            });
    }

    static int partsOf(std::int32_t g) { return 3 + g % 4; }

    std::string name() const override { return "join-toy"; }
    Pipeline& pipeline() override { return pipe_; }
    bool replayable() const override { return true; }

    void
    reset() override
    {
        lastPart.assign(kGroups, -1);
        done.assign(kGroups, 0);
    }

    void
    seedFlow(Seeder& seeder, int) override
    {
        for (std::int32_t g = 0; g < kGroups; ++g)
            seeder.insert<Split>(PartItem{g, -1});
    }

    Join<std::int32_t> join;
    /** Per group: the part that arrived last. */
    std::vector<int> lastPart;
    /** Per group: Done tasks run. */
    std::vector<int> done;

  private:
    Pipeline pipe_;
};

template <int I>
void
JoinStage<I>::execute(ExecContext& ctx, PartItem& item)
{
    auto g = static_cast<std::size_t>(item.group);
    if constexpr (I == 0) {
        for (std::int32_t p = 0; p < JoinToyApp::partsOf(item.group);
             ++p) {
            if (p % 2 == 0)
                ctx.enqueue<Part>(PartItem{item.group, p});
            else
                ctx.enqueue<Detour>(PartItem{item.group, p});
        }
    } else if constexpr (I == 1) {
        ctx.enqueue<Part>(item);
    } else if constexpr (I == 2) {
        app_.lastPart[g] = item.part;
        ctx.arrive(app_.join, item.group);
    } else {
        ++app_.done[g];
    }
}

} // namespace

TEST(Joins, SiblingsFinishingInAnyOrderJoinOnceAndReplay)
{
    JoinToyApp app;
    Engine engine(DeviceConfig::k20c());
    ProfileResult profile;
    auto graph = capture(engine, app, profile);
    // A part's record holds its arrival alone; the continuation's
    // child belongs to the join slot, whichever part came last. Each
    // group's seed record leads to its parts, the odd ones through
    // their detour.
    for (std::int32_t g = 0; g < JoinToyApp::kGroups; ++g) {
        const TaskGraph::Task& split = graph->seed(0, g, 0);
        ASSERT_EQ(split.effects.size(),
                  static_cast<std::size_t>(JoinToyApp::partsOf(g)));
        for (const TaskGraph::Effect& e : split.effects) {
            const TaskGraph::Task* part = e.task;
            if (e.stage == 1) {
                ASSERT_EQ(part->effects.size(), 1u);
                ASSERT_EQ(part->effects[0].stage, 2);
                part = part->effects[0].task;
            } else {
                ASSERT_EQ(e.stage, 2);
            }
            ASSERT_EQ(part->effects.size(), 1u);
            ASSERT_EQ(part->effects[0].stage, -1);
            const auto& then = graph->slot(part->effects[0].slot).then;
            ASSERT_EQ(then.effects.size(), 1u);
            EXPECT_EQ(then.effects[0].stage, 3);
        }
    }
    Pipeline& pipe = app.pipeline();
    std::set<std::vector<int>> lastParts;
    for (const PipelineConfig& c :
         {makeMegakernelConfig(pipe), makeRtcConfig(pipe),
          makeKbkConfig(), makeDynamicParallelismConfig(),
          makeCoarseConfig(pipe, engine.deviceConfig())}) {
        std::string what = c.describe(pipe);
        auto real = engine.runTimed(app, c, kNoLimit);
        ASSERT_TRUE(real) << what;
        EXPECT_EQ(app.done, std::vector<int>(JoinToyApp::kGroups, 1))
            << what;
        lastParts.insert(app.lastPart);
        auto rep = engine.runTimed(app, c, kNoLimit, graph.get());
        ASSERT_TRUE(rep) << what;
        expectSameRun(*real, *rep, what);
        // Replay counted the arrivals without running a task.
        EXPECT_EQ(app.done, std::vector<int>(JoinToyApp::kGroups, 0))
            << what;
    }
    // The schedules differ in which sibling arrives last.
    EXPECT_GT(lastParts.size(), 1u);
}

TEST(Joins, AContinuationInlinesUnderRtc)
{
    JoinToyApp app;
    Engine engine(DeviceConfig::k20c());
    Pipeline& pipe = app.pipeline();
    RunResult queued = engine.run(app, makeMegakernelConfig(pipe));
    EXPECT_EQ(queued.stages[3].items, JoinToyApp::kGroups);
    EXPECT_EQ(queued.stages[3].queue.pushes, JoinToyApp::kGroups);
    // Under RTC each Done runs inside the Split task of its group, at
    // the last part's arrival, and never passes through a queue.
    RunResult inlined = engine.run(app, makeRtcConfig(pipe));
    EXPECT_EQ(app.done, std::vector<int>(JoinToyApp::kGroups, 1));
    EXPECT_EQ(inlined.stages[3].items, JoinToyApp::kGroups);
    EXPECT_EQ(inlined.stages[3].queue.pushes, 0u);
}

TEST(Joins, AnArrivalPastTheExpectedCountIsAConfigError)
{
    JoinToyApp app(1);
    Engine engine(DeviceConfig::k20c());
    try {
        engine.run(app, makeMegakernelConfig(app.pipeline()));
        ADD_FAILURE() << "a join took more arrivals than it expects";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config) << e.what();
        EXPECT_NE(std::string(e.what()).find("`parts`"),
                  std::string::npos)
            << e.what();
    }
}

// ------------------------------------------------------------------
// Lineage names a task whatever its item holds; only a real run can
// tell a task that depends on more.

namespace {

/** A split item: (id, depth). */
struct SplitItem
{
    std::int32_t id;
    std::int32_t depth;
};

struct SplitSink;

/**
 * Splits each item in two until depth 3, reyes-style: both halves
 * keep the parent's id, so the two children are equal items.
 */
struct SplitStage : Stage<SplitItem>
{
    SplitStage() { name = "split"; }

    TaskCost
    cost(const SplitItem&) const override
    {
        TaskCost c;
        c.computeInsts = 100;
        return c;
    }

    void execute(ExecContext& ctx, SplitItem& item) override;
};

struct SplitSink : Stage<SplitItem>
{
    SplitSink() { name = "sink"; }

    TaskCost
    cost(const SplitItem&) const override
    {
        TaskCost c;
        c.computeInsts = 50;
        return c;
    }

    void execute(ExecContext&, SplitItem&) override {}
};

void
SplitStage::execute(ExecContext& ctx, SplitItem& item)
{
    SplitItem half{item.id, item.depth + 1};
    if (half.depth < 3) {
        ctx.enqueue<SplitStage>(half);
        ctx.enqueue<SplitStage>(half);
    } else {
        ctx.enqueue<SplitSink>(half);
    }
}

/** Driver base: counts runs, so a test sees whether any candidate
 *  ran (each run resets the app once). */
class CountingApp : public AppDriver
{
  public:
    Pipeline& pipeline() override { return pipe_; }
    void reset() override { ++runs; }
    bool replayable() const override { return true; }

    int runs = 0;

  protected:
    Pipeline pipe_;
};

class SplitApp : public CountingApp
{
  public:
    SplitApp()
    {
        pipe_.addStage<SplitStage>();
        pipe_.addStage<SplitSink>();
        pipe_.link<SplitStage, SplitStage>();
        pipe_.link<SplitStage, SplitSink>();
    }

    std::string name() const override { return "split-toy"; }

    void
    seedFlow(Seeder& seeder, int) override
    {
        for (std::int32_t i = 0; i < 8; ++i)
            seeder.insert<SplitStage>(SplitItem{i, 0});
    }
};

/** An item with a float member, which no byte key could name. */
struct FloatItem
{
    float weight;
    std::int32_t id;
};

struct FloatStage : Stage<FloatItem>
{
    FloatStage() { name = "float"; }

    TaskCost
    cost(const FloatItem&) const override
    {
        TaskCost c;
        c.computeInsts = 100;
        return c;
    }

    void execute(ExecContext&, FloatItem&) override {}
};

class FloatApp : public CountingApp
{
  public:
    FloatApp() { pipe_.addStage<FloatStage>(); }

    std::string name() const override { return "float-toy"; }

    void
    seedFlow(Seeder& seeder, int) override
    {
        for (std::int32_t i = 0; i < 8; ++i)
            seeder.insert<FloatStage>(FloatItem{0.5f, i});
    }
};

struct DriftItem
{
    std::int32_t id;
};

/** Its cost grows with every run (large enough to move the cycles):
 *  the bytes of an item do not fix its cost, and only a real run can
 *  tell. */
struct DriftStage : Stage<DriftItem>
{
    explicit DriftStage(const int& runs) : runs_(runs) { name = "drift"; }

    TaskCost
    cost(const DriftItem&) const override
    {
        TaskCost c;
        c.computeInsts = 5000.0 * (1 + runs_);
        return c;
    }

    void execute(ExecContext&, DriftItem&) override {}

  private:
    const int& runs_;
};

class DriftApp : public CountingApp
{
  public:
    DriftApp() { pipe_.addStage<DriftStage>(runs); }

    std::string name() const override { return "drift-toy"; }

    void
    seedFlow(Seeder& seeder, int) override
    {
        for (std::int32_t i = 0; i < 64; ++i)
            seeder.insert<DriftStage>(DriftItem{i});
    }
};

/** Sweeps @p app: every candidate replays, and the winner's real
 *  re-run matches its replay. */
void
expectEveryCandidateReplays(CountingApp& app)
{
    Engine engine(DeviceConfig::k20c());
    TunerOptions opts;
    opts.search.smCandidates = 2;
    opts.search.blockCandidates = 2;
    TunerResult r = autotune(engine, app, opts);
    EXPECT_GT(r.evaluated, 0) << app.name();
    EXPECT_EQ(r.replayed, r.evaluated) << app.name();
    EXPECT_TRUE(r.bestRun.completed) << app.name();
}

} // namespace

TEST(Replay, SplitChildrenSharingTheParentIdReplay)
{
    SplitApp app;
    expectEveryCandidateReplays(app);
}

TEST(Replay, FloatItemsReplay)
{
    FloatApp app;
    expectEveryCandidateReplays(app);
}

TEST(Replay, TaskGraphMisuseIsAConfigErrorBeforeAnyStageRuns)
{
    SplitApp app;
    Engine engine(DeviceConfig::k20c());
    PipelineConfig mk = makeMegakernelConfig(app.pipeline());
    auto expectConfig = [&](const char* what, auto run) {
        int runs = app.runs;
        try {
            run();
            ADD_FAILURE() << what;
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::Config) << what << ": "
                                                   << e.what();
        }
        EXPECT_EQ(app.runs, runs) << what;
    };
    TaskGraph graph(app.pipeline().stageCount());
    engine.run(app, mk, &graph);
    expectConfig("captured twice into one graph",
                 [&] { engine.run(app, mk, &graph); });
    expectConfig("replayed an unsealed graph", [&] {
        engine.runTimed(app, mk, kNoLimit, &graph);
    });
    graph.seal();
    expectConfig("captured into a sealed graph",
                 [&] { engine.run(app, mk, &graph); });
}

TEST(Replay, TheWinnerCheckCatchesAnUnsoundDeclaration)
{
    // Capture, candidates and graph all look fine; the winner's real
    // re-run does not match its replay.
    DriftApp app;
    Engine engine(DeviceConfig::k20c());
    TunerOptions opts;
    opts.search.smCandidates = 2;
    opts.search.blockCandidates = 2;
    try {
        autotune(engine, app, opts);
        ADD_FAILURE() << "unsound replay went unnoticed";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config) << e.what();
    }
    EXPECT_GT(app.runs, 2);
}
