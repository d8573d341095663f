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
     * hardware thread). autotune() ignores this.
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
 * timeout-execute each, return the fastest configuration.
 */
TunerResult autotune(Engine& engine, AppDriver& driver,
                     const TunerOptions& opts = {});

/** Creates one private AppDriver instance per tuner worker. */
using DriverFactory = std::function<std::unique_ptr<AppDriver>()>;

/**
 * autotune() with the candidate sweep spread over
 * TunerOptions::threads host threads. Each worker owns a private
 * Engine and AppDriver (from @p makeDriver), so candidate runs never
 * share mutable state; the threads share one atomic best-so-far
 * cycle count that feeds every worker's timeout-execute cutoff.
 *
 * The chosen configuration and its RunResult are bit-identical to
 * the serial sweep for any thread count: per-candidate runs are
 * deterministic, the best candidate can never time out under a
 * monotonically tightening cutoff (timeoutFactor >= 1), and the
 * arg-min reduction runs serially in candidate order after the
 * sweep. Only the timedOut/finished bookkeeping may differ — a
 * looser interleaving can let more candidates finish than the
 * serial sweep would.
 */
TunerResult autotuneParallel(const DeviceConfig& deviceCfg,
                             const DriverFactory& makeDriver,
                             const TunerOptions& opts = {});

} // namespace vp

#endif // VP_TUNER_OFFLINE_TUNER_HH
