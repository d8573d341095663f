#include "tuner/offline_tuner.hh"

#include <atomic>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>

#include "common/logging.hh"

namespace vp {

namespace {

/**
 * A factor below 1 (or NaN) abandons a candidate that beats
 * best-so-far but not best * factor, so the sweep could miss the
 * optimum.
 */
void
checkTimeoutFactor(double factor)
{
    VP_CHECK(factor >= 1.0, ErrorCode::Config,
             "timeoutFactor must be >= 1, got " << factor);
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
                 << ": its items do not identify its tasks "
                    "(AppDriver::keyedItems)");
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

} // namespace

TunerResult
autotune(Engine& engine, AppDriver& driver, const TunerOptions& opts)
{
    checkTimeoutFactor(opts.timeoutFactor);
    AdaptiveRestore restore(engine);
    Pipeline& pipe = driver.pipeline();
    SweepReplay replay;
    ProfileResult profile = replay.profile(engine, driver);

    std::vector<PipelineConfig> candidates = enumerateConfigs(
        pipe, engine.deviceConfig(), profile, opts.search);
    VP_REQUIRE(!candidates.empty(), "no candidate configurations");

    TunerResult result;
    double best = std::numeric_limits<double>::infinity();
    bool have_best = false;
    int nDevices = engine.deviceCount();

    bool sweepAdaptive = opts.adaptive && opts.adaptive->enabled;
    auto arm = [&](bool adaptive) {
        if (adaptive)
            engine.setAdaptive(*opts.adaptive);
        else
            engine.clearAdaptive();
    };

    auto consider = [&](const PipelineConfig& cfg,
                        const ShardPlan* plan, bool adaptive) {
        double limit = have_best
            ? best * opts.timeoutFactor
            : std::numeric_limits<double>::infinity();
        ++result.evaluated;
        arm(adaptive);
        auto run = plan
            ? engine.runShardedTimed(driver, cfg, *plan, limit,
                                     replay.graph())
            : engine.runTimed(driver, cfg, limit, replay.graph());
        if (!run) {
            ++result.timedOut;
            return;
        }
        std::string synopsis = cfg.describe(pipe);
        if (plan)
            synopsis += " shard=" + plan->describe();
        if (adaptive)
            synopsis += " +adaptive";
        result.finished.emplace_back(synopsis, run->cycles);
        if (!have_best || run->cycles < best) {
            best = run->cycles;
            have_best = true;
            result.best = cfg;
            result.bestRun = *run;
            result.bestSharded = plan != nullptr;
            result.bestPlan = plan ? *plan : ShardPlan{};
            result.bestAdaptive = adaptive;
            VP_DEBUG("tuner: new best " << run->cycles << " cycles: "
                     << synopsis);
        }
    };

    for (PipelineConfig& cfg : candidates) {
        cfg.onlineAdaptation = opts.onlineAdaptation;
        bool adaptable = sweepAdaptive && adaptiveApplicable(cfg);
        if (nDevices > 1 && cfg.top == PipelineConfig::Top::Groups) {
            // Multi-device engine: the shard plan is one more tuning
            // dimension of each Groups candidate.
            for (const ShardPlan& plan :
                 defaultShardPlans(cfg, pipe, nDevices)) {
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
    VP_REQUIRE(have_best, "every candidate configuration timed out");
    arm(result.bestAdaptive);
    replay.confirm(engine, driver, result);
    return result;
}

TunerResult
autotuneParallel(const DeviceConfig& deviceCfg,
                 const DriverFactory& makeDriver,
                 const TunerOptions& opts)
{
    VP_REQUIRE(makeDriver != nullptr,
               "autotuneParallel needs a driver factory");
    checkTimeoutFactor(opts.timeoutFactor);

    int threads = opts.threads;
    if (threads <= 0) {
        threads = static_cast<int>(
            std::thread::hardware_concurrency());
        if (threads <= 0)
            threads = 1;
    }

    // Profile and enumerate once, on the calling thread.
    Engine engine(deviceCfg);
    std::unique_ptr<AppDriver> driver0 = makeDriver();
    VP_REQUIRE(driver0 != nullptr, "driver factory returned null");
    Pipeline& pipe = driver0->pipeline();
    // The sealed graph is read-only, so every worker replays it.
    SweepReplay replay;
    ProfileResult profile = replay.profile(engine, *driver0);
    const TaskGraph* graph = replay.graph();

    std::vector<PipelineConfig> configs = enumerateConfigs(
        pipe, deviceCfg, profile, opts.search);
    VP_REQUIRE(!configs.empty(), "no candidate configurations");
    for (PipelineConfig& cfg : configs)
        cfg.onlineAdaptation = opts.onlineAdaptation;

    // One job per (config, controller) variant: with the adaptive
    // sweep armed, applicable configs are tried both ways, exactly
    // like the serial sweep.
    bool sweepAdaptive = opts.adaptive && opts.adaptive->enabled;
    std::vector<std::pair<PipelineConfig, bool>> candidates;
    for (const PipelineConfig& cfg : configs) {
        candidates.emplace_back(cfg, false);
        if (sweepAdaptive && adaptiveApplicable(cfg))
            candidates.emplace_back(cfg, true);
    }
    if (threads > static_cast<int>(candidates.size()))
        threads = static_cast<int>(candidates.size());

    // Each slot is written by exactly one worker (candidates are
    // claimed through nextIdx), so the vector needs no lock.
    std::vector<std::optional<RunResult>> runs(candidates.size());
    std::atomic<std::size_t> nextIdx{0};
    // Tightest completed-run cycle count seen so far; only ever
    // decreases, and is always >= the true minimum, so the true-best
    // candidate always finishes under limit = bestSoFar * factor.
    std::atomic<double> bestSoFar{
        std::numeric_limits<double>::infinity()};
    std::mutex errMutex;
    std::exception_ptr firstError;
    std::atomic<bool> failed{false};

    auto worker = [&](AppDriver& driver) {
        Engine eng(deviceCfg);
        for (;;) {
            std::size_t i =
                nextIdx.fetch_add(1, std::memory_order_relaxed);
            if (i >= candidates.size() || failed.load())
                return;
            double limit =
                bestSoFar.load(std::memory_order_relaxed)
                * opts.timeoutFactor;
            try {
                if (candidates[i].second)
                    eng.setAdaptive(*opts.adaptive);
                else
                    eng.clearAdaptive();
                auto run = eng.runTimed(driver, candidates[i].first,
                                        limit, graph);
                if (!run)
                    continue;
                double cycles = run->cycles;
                double cur =
                    bestSoFar.load(std::memory_order_relaxed);
                while (cycles < cur
                       && !bestSoFar.compare_exchange_weak(
                              cur, cycles,
                              std::memory_order_relaxed)) {
                }
                runs[i] = std::move(run);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errMutex);
                if (!firstError)
                    firstError = std::current_exception();
                failed.store(true);
                return;
            }
        }
    };

    if (threads <= 1) {
        worker(*driver0);
    } else {
        std::vector<std::unique_ptr<AppDriver>> extraDrivers;
        for (int t = 1; t < threads; ++t) {
            extraDrivers.push_back(makeDriver());
            VP_REQUIRE(extraDrivers.back() != nullptr,
                       "driver factory returned null");
        }
        std::vector<std::thread> pool;
        for (int t = 1; t < threads; ++t)
            pool.emplace_back(worker, std::ref(*extraDrivers[t - 1]));
        worker(*driver0);
        for (std::thread& th : pool)
            th.join();
    }
    if (firstError)
        std::rethrow_exception(firstError);

    // Serial reduction in candidate order: deterministic tie-breaking
    // (first candidate with the minimal cycle count wins), identical
    // to the serial sweep's arg-min.
    TunerResult result;
    result.evaluated = static_cast<int>(candidates.size());
    double best = std::numeric_limits<double>::infinity();
    bool have_best = false;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (!runs[i]) {
            ++result.timedOut;
            continue;
        }
        std::string synopsis = candidates[i].first.describe(pipe);
        if (candidates[i].second)
            synopsis += " +adaptive";
        result.finished.emplace_back(std::move(synopsis),
                                     runs[i]->cycles);
        if (!have_best || runs[i]->cycles < best) {
            best = runs[i]->cycles;
            have_best = true;
            result.best = candidates[i].first;
            result.bestRun = *runs[i];
            result.bestAdaptive = candidates[i].second;
        }
    }
    VP_REQUIRE(have_best, "every candidate configuration timed out");
    if (result.bestAdaptive)
        engine.setAdaptive(*opts.adaptive);
    replay.confirm(engine, *driver0, result);
    return result;
}

} // namespace vp
