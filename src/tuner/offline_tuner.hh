/**
 * @file
 * The offline auto-tuner (Fig. 10): evaluates candidate
 * configurations with timeout-execute, keeping the fastest. The
 * online half (idle-SM refill) lives in the runtime and is switched
 * on by PipelineConfig::onlineAdaptation.
 */

#ifndef VP_TUNER_OFFLINE_TUNER_HH
#define VP_TUNER_OFFLINE_TUNER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "tuner/search_space.hh"

namespace vp {

/** Options of one autotuning session. */
struct TunerOptions
{
    SearchOptions search;
    /**
     * A candidate is abandoned once it exceeds best-so-far times
     * this factor (the paper's timeout-execute with a small margin).
     * Must be >= 1: autotune() and autotuneParallel() reject
     * anything else (NaN included) with ErrorCode::Config, as they do
     * a SearchOptions bound below 1.
     */
    double timeoutFactor = 1.02;
    /** Enable online adaptation in the returned configuration. */
    bool onlineAdaptation = false;
    /**
     * When set (and enabled), the adaptive load-balance controller
     * joins the search space: every candidate with an adjustable
     * partition (adaptiveApplicable) is evaluated both without and
     * with the controller armed, and TunerResult::bestAdaptive
     * reports which variant won. The tuned candidate's per-stage
     * block budgets seed the controller's initial partition.
     */
    std::optional<AdaptiveConfig> adaptive;
    /**
     * Worker threads for autotuneParallel (<= 0 means one per
     * hardware thread); autotune() runs on the calling thread alone.
     * The TunerResult does not depend on it: workers claim jobs in
     * order, so no limit is tighter than the serial sweep's, and the
     * reduction reapplies the serial rule (see autotuneParallel).
     */
    int threads = 1;
};

/** Outcome of one autotuning session. */
struct TunerResult
{
    PipelineConfig best;
    RunResult bestRun;
    int evaluated = 0;
    int timedOut = 0;
    /**
     * Candidates that replayed the app's captured task graph instead
     * of running its payload (docs/MODEL.md, "Tuner replay"): every
     * candidate when the app is replayable and no candidate
     * run reads app state, otherwise none. `bestRun` is then the
     * winner's real, verified re-run, checked against its replay.
     */
    int replayed = 0;
    /** (config synopsis, cycles) of every finished candidate. */
    std::vector<std::pair<std::string, double>> finished;
    /**
     * Winning shard plan when the engine holds a device group: the
     * tuner then sweeps config x shard-plan (replicate, and — for
     * multi-group configs — round-robin pinning). `bestSharded`
     * distinguishes the winner (a sharded run of `bestPlan`) from a
     * plain single-device run.
     */
    ShardPlan bestPlan;
    bool bestSharded = false;
    /**
     * True when the winning run had the adaptive controller armed
     * (TunerOptions::adaptive): the caller should pair `best` with
     * Engine::setAdaptive to reproduce it.
     */
    bool bestAdaptive = false;
};

/**
 * Autotune @p driver on @p engine: profile, enumerate candidates,
 * timeout-execute each, return the fastest configuration. Candidates
 * arm and clear the engine's adaptive controller themselves; the
 * caller's adaptive configuration is restored on return, also when
 * the sweep throws.
 */
TunerResult autotune(Engine& engine, AppDriver& driver,
                     const TunerOptions& opts = {});

/**
 * Creates one private AppDriver instance per tuner worker. Workers
 * call it on their own threads, concurrently.
 */
using DriverFactory = std::function<std::unique_ptr<AppDriver>()>;

/**
 * autotune() with the candidate sweep spread over
 * TunerOptions::threads host threads. The calling thread is the first
 * worker; every other one builds a private Engine and AppDriver (from
 * @p makeDriver) on its own thread, so candidate runs never share
 * mutable state. A factory that throws, or returns null, on any
 * worker fails the call with that error.
 *
 * Returns autotune()'s TunerResult on an Engine of @p deviceCfg,
 * field for field, at any thread count. A worker claims the next job
 * and reads best-so-far under one lock, so every finished run it
 * sees has a lower index and its limit is never tighter than the
 * serial one. A run finishes under a limit exactly when its cycles
 * are at most that limit, so the reduction, in job order, reapplies
 * the serial rule: a job counts as finished when it finished and its
 * cycles are at most timeoutFactor times the best of the earlier
 * jobs counted. The winner, the finished run least by (cycles, job
 * index), finishes at every thread count.
 */
TunerResult autotuneParallel(const DeviceConfig& deviceCfg,
                             const DriverFactory& makeDriver,
                             const TunerOptions& opts = {});

} // namespace vp

#endif // VP_TUNER_OFFLINE_TUNER_HH
