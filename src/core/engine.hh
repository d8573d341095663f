/**
 * @file
 * Engine: builds a fresh simulated device group per run and executes
 * a pipeline application under a given configuration. Every entry
 * point is one run set-up (runGroup): a GroupCoordinator over one
 * runner per device (core/runtime.hh), driven by the Supervisor
 * (core/supervisor.hh).
 */

#ifndef VP_CORE_ENGINE_HH
#define VP_CORE_ENGINE_HH

#include <cstdint>
#include <optional>

#include "core/model_config.hh"
#include "core/recovery.hh"
#include "core/run_result.hh"
#include "core/runtime.hh"
#include "core/shard.hh"
#include "gpu/device_config.hh"
#include "gpu/device_group.hh"
#include "obs/obs.hh"
#include "sim/fault.hh"

namespace vp {

class ServeSession;

/** Executes pipeline applications on a simulated device. */
class Engine
{
  public:
    /** @param cfg the device to simulate. */
    explicit Engine(DeviceConfig cfg);

    /**
     * Multi-device engine: runs shard over the devices of @p group,
     * connected by its simulated interconnect. Single-device entry
     * points (run/runTimed) keep using the first device.
     */
    explicit Engine(DeviceGroupConfig group);

    /** The device configuration runs execute on. */
    const DeviceConfig& deviceConfig() const { return cfg_; }

    /** Devices available to sharded runs (1 without a group). */
    int
    deviceCount() const
    {
        return group_ ? static_cast<int>(group_->devices.size()) : 1;
    }

    /** @name Fault injection and recovery @{ */

    /**
     * Inject the faults described by @p plan into subsequent runs.
     * Each run constructs its own seeded FaultInjector from the
     * plan, so repeated runs are bit-reproducible.
     */
    void
    setFaultPlan(const FaultPlan& plan)
    {
        plan_ = plan;
    }

    /**
     * Configure retry/backoff/watchdog policy for subsequent runs.
     * Also switches "drained but work left"/watchdog conditions from
     * fatal errors to structured RunResult failures.
     */
    void
    setRecovery(const RecoveryConfig& rc)
    {
        recovery_ = rc;
    }

    /** @} */

    /** @name Observability @{ */

    /**
     * Arm tracing/metrics/sampling for subsequent runs. Each run
     * builds its own ObsData and hands it back through
     * RunResult::obs. Tracing is passive — it records simulated
     * timestamps without scheduling simulation events — so an
     * observed run's event sequence and cycle count are identical to
     * an unobserved one.
     */
    void
    setObservability(const ObsConfig& oc)
    {
        obsCfg_ = oc;
    }

    /** Stop collecting traces/metrics. */
    void clearObservability() { obsCfg_.reset(); }

    /** The armed observability configuration, if any. */
    const std::optional<ObsConfig>&
    observability() const
    {
        return obsCfg_;
    }

    /** @} */

    /** @name Online load balancing @{ */

    /**
     * Arm the adaptive load-balance controller for subsequent runs
     * (core/adaptive.hh). At every controller epoch the engine
     * pauses event delivery — the same zero-sim-event slicing the
     * watchdog and sampler use — samples the smoothed fine-stage
     * queue depths, and lets the controller migrate one block of
     * per-SM budget between stages. A disabled config (the default
     * AdaptiveConfig{}) leaves runs event-for-event identical to an
     * engine that never saw this call; configurations with no fine
     * group simply never arm.
     */
    void
    setAdaptive(const AdaptiveConfig& ac)
    {
        ac.validate();
        adaptiveCfg_ = ac;
    }

    /** Stop adapting. */
    void clearAdaptive() { adaptiveCfg_.reset(); }

    /** The armed adaptive configuration, if any. */
    const std::optional<AdaptiveConfig>&
    adaptive() const
    {
        return adaptiveCfg_;
    }

    /** @} */

    /** @name Serving (continuous request ingest) @{ */

    /**
     * Attach a serving session (core/serve_hook.hh): subsequent runs
     * ingest its requests on zero-sim-event epoch boundaries instead
     * of ending at the first drain. Non-owning — the session must
     * outlive the runs and is normally managed by vp_serve's
     * ServingEngine, which also arms the provenance tracker serving
     * depends on. Serve-mode runs require a Groups configuration and
     * reject scripted fault events.
     */
    void setServeSession(ServeSession* s) { serve_ = s; }

    /** Detach the serving session. */
    void clearServeSession() { serve_ = nullptr; }

    /** The attached serving session, if any. */
    ServeSession* serveSession() const { return serve_; }

    /** @} */

    /**
     * Run @p driver under @p config to completion.
     * Fatal when the run livelocks or leaves work pending.
     *
     * With @p capture (an empty graph over the pipeline's stages),
     * the run also records every task's cost and children into it
     * (core/task_graph.hh); @p config must inline nothing, and
     * canReplay(driver) must hold.
     *
     * const — a run builds all mutable state (simulator, device,
     * runner) on its own stack, so distinct drivers can run through
     * the same Engine from different threads concurrently.
     */
    RunResult run(AppDriver& driver, const PipelineConfig& config,
                  TaskGraph* capture = nullptr) const;

    /**
     * Timeout-execute (the auto-tuner primitive of Fig. 10): run,
     * but abandon once virtual time exceeds @p cycleLimit.
     *
     * With @p replay (a sealed capture of the same app), every task
     * takes its recorded cost and children instead of running the
     * payload, and the run skips verify(); canReplay(driver) must
     * hold.
     * @return the result, or nullopt on timeout.
     */
    std::optional<RunResult>
    runTimed(AppDriver& driver, const PipelineConfig& config,
             double cycleLimit, const TaskGraph* replay = nullptr) const;

    /**
     * Run @p driver sharded over the engine's device group under
     * @p plan. Requires construction with a DeviceGroupConfig and a
     * Groups configuration (ShardPlan::validate). run() is this run
     * on the one-device group of the first device under a
     * replicate-all plan, so a single-device group with a replicate
     * plan matches run() event for event (the
     * Conformance.SingleDeviceGroupIsDegenerate lane).
     */
    RunResult runSharded(AppDriver& driver,
                         const PipelineConfig& config,
                         const ShardPlan& plan) const;

    /** Timeout-execute variant of runSharded (auto-tuner
     *  primitive); @p replay as in runTimed. */
    std::optional<RunResult>
    runShardedTimed(AppDriver& driver, const PipelineConfig& config,
                    const ShardPlan& plan, double cycleLimit,
                    const TaskGraph* replay = nullptr) const;

    /**
     * True when runs of @p driver here may capture and replay its
     * task graph: the app is replayable (AppDriver::replayable), no
     * stage has a bounded queue, and no fault plan, recovery policy,
     * observability or serving session is armed — nothing then reads
     * app state during a run.
     */
    bool canReplay(AppDriver& driver) const;

    /** Cap on simulation events per run (livelock guard). */
    void setEventLimit(std::uint64_t limit) { eventLimit_ = limit; }

  private:
    /** Fatal (ErrorCode::Config) unless a run of @p driver may
     *  capture into @p capture, an empty graph, or replay @p replay,
     *  a sealed one (exactly one is set). */
    void requireTaskGraph(AppDriver& driver, const TaskGraph* capture,
                          const TaskGraph* replay) const;

    /**
     * The one run set-up behind every entry point: validate, build
     * the simulator, devices, fault injector and observability, then
     * the run's GroupCoordinator, and hand it to the Supervisor. With
     * @p shardPlan the run spans the engine's group; without one it
     * runs on the one-device group of the first device under a
     * replicate-all plan. At most one of @p capture and @p replay is
     * set.
     */
    std::optional<RunResult>
    runGroup(AppDriver& driver, const PipelineConfig& config,
             const ShardPlan* shardPlan, double cycleLimit,
             TaskGraph* capture, const TaskGraph* replay) const;

    DeviceConfig cfg_;
    std::uint64_t eventLimit_ = 400000000ULL;
    std::optional<FaultPlan> plan_;
    std::optional<RecoveryConfig> recovery_;
    std::optional<ObsConfig> obsCfg_;
    std::optional<AdaptiveConfig> adaptiveCfg_;
    std::optional<DeviceGroupConfig> group_;
    ServeSession* serve_ = nullptr;
};

} // namespace vp

#endif // VP_CORE_ENGINE_HH
