#include "tuner/offline_tuner.hh"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>

#include "common/logging.hh"

namespace vp {

namespace {

/**
 * Options no sweep runs with, rejected before the profiling run. A
 * factor below 1 (or NaN) abandons a candidate that beats best-so-far
 * but not best * factor, so the sweep could miss the optimum; a
 * search bound below 1 leaves no candidate, or no multi-group one.
 */
void
checkOptions(const TunerOptions& opts)
{
    VP_CHECK(opts.timeoutFactor >= 1.0, ErrorCode::Config,
             "timeoutFactor must be >= 1, got " << opts.timeoutFactor);
    const SearchOptions& s = opts.search;
    VP_CHECK(s.maxConfigs >= 1 && s.smCandidates >= 1
                 && s.blockCandidates >= 1,
             ErrorCode::Config,
             "search bounds must be >= 1, got maxConfigs "
             << s.maxConfigs << ", smCandidates " << s.smCandidates
             << ", blockCandidates " << s.blockCandidates);
}

/**
 * Payload replay of one sweep (docs/MODEL.md, "Tuner replay"). The
 * profiling run captures the app's task graph when the engine allows
 * it (Engine::canReplay); every candidate then replays that graph,
 * and confirm() re-runs the winner with the real payload.
 */
class SweepReplay
{
  public:
    /** Profile @p driver on @p engine, capturing its task graph when
     *  replay is sound there. */
    ProfileResult
    profile(Engine& engine, AppDriver& driver)
    {
        if (!engine.canReplay(driver))
            return profileApp(engine, driver);
        graph_.emplace(driver.pipeline().stageCount());
        ProfileResult p = profileApp(engine, driver, &*graph_);
        graph_->seal();
        return p;
    }

    /** The sealed graph candidates replay; null when declined. */
    const TaskGraph*
    graph() const
    {
        return graph_ ? &*graph_ : nullptr;
    }

    /**
     * Re-run the replayed winner of @p result with its payload on
     * @p engine, armed as the winning candidate was, and make that
     * verified run bestRun. Fatal (ErrorCode::Config) unless its
     * cycles, events and polls equal the replayed run's.
     */
    void
    confirm(const Engine& engine, AppDriver& driver,
            TunerResult& result) const
    {
        if (!graph_)
            return;
        result.replayed = result.evaluated;
        RunResult real = result.bestSharded
            ? engine.runSharded(driver, result.best, result.bestPlan)
            : engine.run(driver, result.best);
        const RunResult& rep = result.bestRun;
        VP_CHECK(real.cycles == rep.cycles
                     && real.simEvents == rep.simEvents
                     && real.polls == rep.polls,
                 ErrorCode::Config,
                 driver.name() << ": winner `" << real.configName
                 << "` replayed in " << rep.cycles << " cycles, "
                 << rep.simEvents << " events, " << rep.polls
                 << " polls but ran in " << real.cycles << ", "
                 << real.simEvents << ", " << real.polls
                 << ": its tasks depend on more than their lineage "
                    "(AppDriver::replayable)");
        result.bestRun = std::move(real);
    }

  private:
    std::optional<TaskGraph> graph_;
};

/** Clears an engine's adaptive controller for a sweep and restores
 *  the caller's configuration on every exit path. */
class AdaptiveRestore
{
  public:
    explicit AdaptiveRestore(Engine& engine)
        : engine_(engine), saved_(engine.adaptive())
    {
        engine_.clearAdaptive();
    }

    ~AdaptiveRestore()
    {
        // setAdaptive() revalidates a config that validated when the
        // caller set it, so it cannot throw here.
        if (saved_)
            engine_.setAdaptive(*saved_);
        else
            engine_.clearAdaptive();
    }

    AdaptiveRestore(const AdaptiveRestore&) = delete;
    AdaptiveRestore& operator=(const AdaptiveRestore&) = delete;

  private:
    Engine& engine_;
    std::optional<AdaptiveConfig> saved_;
};

/** One candidate: a configuration, run sharded under a plan or on
 *  one device, with or without the adaptive controller. */
struct Job
{
    PipelineConfig config;
    std::optional<ShardPlan> plan;
    bool adaptive = false;
};

/** The sweep's jobs in order: config x shard plan x adaptive. */
std::vector<Job>
enumerateJobs(const Engine& engine, const Pipeline& pipe,
              const ProfileResult& profile, const TunerOptions& opts)
{
    bool sweepAdaptive = opts.adaptive && opts.adaptive->enabled;
    int nDevices = engine.deviceCount();
    std::vector<Job> jobs;
    for (PipelineConfig& cfg : enumerateConfigs(
             pipe, engine.deviceConfig(), profile, opts.search)) {
        cfg.onlineAdaptation = opts.onlineAdaptation;
        bool adaptable = sweepAdaptive && adaptiveApplicable(cfg);
        // Multi-device engine: the shard plan is one more tuning
        // dimension of each Groups candidate.
        std::vector<std::optional<ShardPlan>> plans(1);
        if (nDevices > 1 && cfg.top == PipelineConfig::Top::Groups) {
            std::vector<ShardPlan> group =
                defaultShardPlans(cfg, pipe, nDevices);
            plans.assign(group.begin(), group.end());
        }
        for (const std::optional<ShardPlan>& plan : plans) {
            jobs.push_back({cfg, plan, false});
            if (adaptable)
                jobs.push_back({cfg, plan, true});
        }
    }
    VP_REQUIRE(!jobs.empty(), "no candidate configurations");
    return jobs;
}

/** Arm @p engine's adaptive controller for a job, or clear it. */
void
arm(Engine& engine, const TunerOptions& opts, bool adaptive)
{
    if (adaptive)
        engine.setAdaptive(*opts.adaptive);
    else
        engine.clearAdaptive();
}

/** A private engine and driver for a sweep worker. */
struct Worker
{
    Engine engine;
    std::unique_ptr<AppDriver> driver;
};

/**
 * The one sweep behind autotune() and autotuneParallel(): profile,
 * enumerate the jobs, timeout-execute them over @p threads workers
 * and reduce in job order. The first worker runs on @p engine and
 * @p driver on the calling thread; each other one is built by
 * @p makeWorker on a thread of its own and runs there.
 */
TunerResult
sweep(Engine& engine, AppDriver& driver, const TunerOptions& opts,
      int threads, const std::function<Worker()>& makeWorker)
{
    AdaptiveRestore restore(engine);
    Pipeline& pipe = driver.pipeline();
    SweepReplay replay;
    ProfileResult profile = replay.profile(engine, driver);
    std::vector<Job> jobs = enumerateJobs(engine, pipe, profile, opts);

    // The run loop. `mutex` guards what the workers share, declared
    // below it. A worker claims the next job and reads best-so-far
    // under it, so every finished run it sees has a lower index. Per
    // job it keeps the cycles of a run that finished, and only the
    // run least by (cycles, job index). Job 0 runs alone, on the
    // calling thread: until it ends there is no limit to run under.
    std::mutex mutex;
    std::condition_variable firstEnded;
    bool firstDone = false;
    std::size_t next = 0;
    double bestSoFar = std::numeric_limits<double>::infinity();
    std::vector<std::optional<double>> cycles(jobs.size());
    std::optional<RunResult> bestRun;
    std::size_t bestJob = 0;
    // The error the sweep throws is the one of least rank: 0 for a
    // worker that could not be built, i + 1 for a failed job i.
    std::exception_ptr error;
    std::size_t errorRank = jobs.size() + 1;
    auto fail = [&](std::size_t rank) {
        std::lock_guard<std::mutex> lock(mutex);
        if (rank < errorRank) {
            errorRank = rank;
            error = std::current_exception();
        }
        firstEnded.notify_all();
    };
    auto work = [&](Engine& eng, AppDriver& drv) {
        for (;;) {
            std::size_t i;
            double limit;
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (next == jobs.size() || error)
                    return;
                i = next++;
                limit = bestSoFar * opts.timeoutFactor;
            }
            const Job& job = jobs[i];
            std::optional<RunResult> run;
            try {
                arm(eng, opts, job.adaptive);
                run = job.plan
                    ? eng.runShardedTimed(drv, job.config, *job.plan,
                                          limit, replay.graph())
                    : eng.runTimed(drv, job.config, limit,
                                   replay.graph());
            } catch (...) {
                fail(i + 1);
                return;
            }
            std::lock_guard<std::mutex> lock(mutex);
            if (i == 0) {
                firstDone = true;
                firstEnded.notify_all();
            }
            if (!run)
                continue;
            cycles[i] = run->cycles;
            bestSoFar = std::min(bestSoFar, run->cycles);
            if (!bestRun
                || std::tie(run->cycles, i)
                    < std::tie(bestRun->cycles, bestJob)) {
                bestRun = std::move(run);
                bestJob = i;
            }
        }
    };
    std::size_t extra =
        std::min<std::size_t>(std::max(threads, 1), jobs.size()) - 1;
    {
        // Joined on every exit from this block.
        std::vector<std::jthread> pool;
        for (std::size_t t = 0; t < extra; ++t)
            pool.emplace_back([&] {
                std::optional<Worker> w;
                try {
                    w.emplace(makeWorker());
                } catch (...) {
                    fail(0);
                    return;
                }
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    firstEnded.wait(lock,
                                    [&] { return firstDone || error; });
                }
                work(w->engine, *w->driver);
            });
        work(engine, driver);
    }
    if (error)
        std::rethrow_exception(error);

    // The reduction. A worker's limit is never tighter than the
    // serial sweep's, and a run finishes under a limit exactly when
    // its cycles are at most that limit, so the serial rule sorts
    // out the runs that finished only under a looser limit.
    TunerResult result;
    result.evaluated = static_cast<int>(jobs.size());
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!cycles[i] || *cycles[i] > best * opts.timeoutFactor) {
            ++result.timedOut;
            continue;
        }
        const Job& job = jobs[i];
        std::string synopsis = job.config.describe(pipe);
        if (job.plan)
            synopsis += " shard=" + job.plan->describe();
        if (job.adaptive)
            synopsis += " +adaptive";
        if (*cycles[i] < best) {
            best = *cycles[i];
            VP_DEBUG("tuner: new best " << best << " cycles: "
                     << synopsis);
        }
        result.finished.emplace_back(std::move(synopsis), *cycles[i]);
    }
    VP_ASSERT(bestRun && bestRun->cycles == best,
              "the least finished run is not the serial winner");
    const Job& won = jobs[bestJob];
    result.best = won.config;
    result.bestRun = std::move(*bestRun);
    result.bestSharded = won.plan.has_value();
    result.bestPlan = won.plan.value_or(ShardPlan{});
    result.bestAdaptive = won.adaptive;
    arm(engine, opts, won.adaptive);
    replay.confirm(engine, driver, result);
    return result;
}

} // namespace

TunerResult
autotune(Engine& engine, AppDriver& driver, const TunerOptions& opts)
{
    checkOptions(opts);
    return sweep(engine, driver, opts, 1, nullptr);
}

TunerResult
autotuneParallel(const DeviceConfig& deviceCfg,
                 const DriverFactory& makeDriver,
                 const TunerOptions& opts)
{
    VP_REQUIRE(makeDriver != nullptr,
               "autotuneParallel needs a driver factory");
    checkOptions(opts);
    int threads = opts.threads > 0
        ? opts.threads
        : static_cast<int>(std::thread::hardware_concurrency());
    auto makeWorker = [&] {
        Worker w{Engine(deviceCfg), makeDriver()};
        VP_REQUIRE(w.driver != nullptr, "driver factory returned null");
        return w;
    };
    Worker first = makeWorker();
    return sweep(first.engine, *first.driver, opts, threads, makeWorker);
}

} // namespace vp
