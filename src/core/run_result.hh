/**
 * @file
 * Result record of one simulated pipeline execution.
 */

#ifndef VP_CORE_RUN_RESULT_HH
#define VP_CORE_RUN_RESULT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "core/recovery.hh"
#include "gpu/device.hh"
#include "gpu/host.hh"
#include "queueing/work_queue.hh"
#include "sim/interconnect.hh"

namespace vp {

struct ObsData;

/** How a run ended. */
enum class RunOutcome
{
    /** Drained all work and verified cleanly. */
    Completed,
    /** Drained, but some injected faults destroyed work (dead
     *  letters, dropped pushes); every task is still accounted for. */
    Degraded,
    /** Drained, but the application's verify() rejected the output. */
    VerifyFailed,
    /** The watchdog detected a stall (deadlock/livelock) and stopped
     *  the run with a diagnostic instead of hanging. */
    Stalled,
    /** The global drain timeout elapsed with work still pending. */
    DrainTimeout,
};

/** Human-readable name of @p o. */
inline const char*
runOutcomeName(RunOutcome o)
{
    switch (o) {
      case RunOutcome::Completed: return "completed";
      case RunOutcome::Degraded: return "degraded";
      case RunOutcome::VerifyFailed: return "verify-failed";
      case RunOutcome::Stalled: return "stalled";
      case RunOutcome::DrainTimeout: return "drain-timeout";
    }
    return "unknown";
}

/** Per-stage accounting of one run. */
struct StageRunStats
{
    std::string name;
    /** Data items processed by this stage. */
    std::uint64_t items = 0;
    /** Block-batches executed. */
    std::uint64_t batches = 0;
    /** Warp instructions attributed to this stage. */
    double warpInsts = 0.0;
    /** Summed wall duration of this stage's batch executions. */
    double execCycles = 0.0;
    /** Items of this stage scheduled for retry after a fault. */
    std::uint64_t retried = 0;
    /** Items of this stage abandoned to the dead-letter count. */
    std::uint64_t deadLettered = 0;
    /** Queue statistics of the stage's input queue. */
    QueueStats queue;

    /** Fold in the same stage's stats from another queue set or
     *  device (the name stays). */
    StageRunStats&
    operator+=(const StageRunStats& o)
    {
        items += o.items;
        batches += o.batches;
        warpInsts += o.warpInsts;
        execCycles += o.execCycles;
        retried += o.retried;
        deadLettered += o.deadLettered;
        queue += o.queue;
        return *this;
    }
};

/** Per-device breakdown of a sharded (multi-device) run. */
struct ShardDeviceStats
{
    /** Device model name (e.g. "gtx1080"). */
    std::string deviceName;
    DeviceStats device;
    HostStats host;
    /** This device's SM issue-slot utilization [0,1]. */
    double smUtilization = 0.0;

    /** True when a scripted device fault killed this device. */
    bool failed = false;
    /** Items evacuated out of this device's queues at kill time. */
    std::uint64_t itemsEvacuated = 0;
    /** Pinned stages this device adopted from dead peers. */
    int stagesRehomedIn = 0;
};

/** Per-tenant accounting of a serving-mode run. */
struct TenantServeStats
{
    std::string name;
    /** Requests generated by this tenant's clients. */
    std::uint64_t offered = 0;
    /** Requests past the token-bucket admission controller. */
    std::uint64_t admitted = 0;
    /** Requests rejected (overload shed or queue overflow). */
    std::uint64_t shed = 0;
    /** Admitted requests whose whole lineage reached terminal fates. */
    std::uint64_t completed = 0;
    /** Admitted requests still open when the run ended (0 after a
     *  clean drain). */
    std::uint64_t outstanding = 0;
    /**
     * Completed requests whose e2e latency exceeded the tenant's
     * per-request deadline (deadlineCycles, accounted the moment the
     * lineage closes); with no deadline configured, falls back to
     * counting latencies over the p99 SLO target. A request finishing
     * exactly at the deadline is a hit, matching the `p99 <= target`
     * verdict convention. */
    std::uint64_t deadlineMisses = 0;
    /** Per-request deadline this tenant ran under (0 = none). */
    double deadlineCycles = 0.0;
    /** Completed requests that met the deadline, as a fraction of
     *  completed (1 when no deadline is set or nothing completed). */
    double deadlineHitRate = 1.0;

    /** Exact nearest-rank percentiles of per-request end-to-end
     *  latency (admission to last terminal), simulated cycles. */
    double p50Cycles = 0.0;
    double p99Cycles = 0.0;
    double meanCycles = 0.0;
    double maxCycles = 0.0;

    /** SLO targets (0 = none set) and their verdicts. */
    double sloP50Cycles = 0.0;
    double sloP99Cycles = 0.0;
    bool sloP50Ok = true;
    bool sloP99Ok = true;
};

/** One serving epoch's activity, from stats snapshot deltas (the
 *  serving loop never resets queue statistics mid-run). */
struct ServeEpochStats
{
    /** Epoch boundary time, cycles. */
    double at = 0.0;
    std::uint64_t arrivals = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    /** Requests whose lineage closed during this epoch. */
    std::uint64_t completed = 0;
    /** Queue pushes + pops + transfer deliveries during the epoch. */
    std::uint64_t queueTraffic = 0;
};

/** Serving-mode totals attached to RunResult by a ServeSession. */
struct ServingRunStats
{
    std::uint64_t epochs = 0;
    /** Epoch period, cycles. */
    double epochCycles = 0.0;
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    std::uint64_t outstanding = 0;
    /** Completed requests per million simulated cycles. */
    double throughputPerMCycle = 0.0;
    /** Deadline misses summed over tenants with a deadline set. */
    std::uint64_t deadlineMisses = 0;
    /** Hit fraction over completed requests of tenants with a
     *  deadline (1 when no tenant sets one). */
    double deadlineHitRate = 1.0;
    std::vector<TenantServeStats> tenants;
    std::vector<ServeEpochStats> epochLog;
};

/** Everything measured during one pipeline run. */
struct RunResult
{
    /** End-to-end virtual time, cycles. */
    double cycles = 0.0;
    /** End-to-end virtual time, milliseconds of device wall time. */
    double ms = 0.0;
    /** Configuration synopsis the run used. */
    std::string configName;
    /** Device name. */
    std::string deviceName;

    DeviceStats device;
    HostStats host;
    std::vector<StageRunStats> stages;

    /** SM issue-slot utilization averaged over SMs and time [0,1]. */
    double smUtilization = 0.0;

    /** Empty-queue polls by persistent blocks. */
    std::uint64_t polls = 0;
    /** Blocks that retreated (wrong SM / block budget exceeded). */
    std::uint64_t retreats = 0;
    /** Refill kernels launched by the online tuner. */
    std::uint64_t refills = 0;

    /** Extra counters (model-specific). */
    StatGroup extra;

    /** Per-device breakdown; empty on single-device runs. */
    std::vector<ShardDeviceStats> shardDevices;
    /** Cross-device transfer totals; zero on single-device runs. */
    InterconnectStats interconnect;

    /** Simulation events fired during this run, elided idle polls
     *  included (host-side engine-throughput metric, not a property
     *  of the modeled device). */
    std::uint64_t simEvents = 0;
    /** Of simEvents, the ones the engine actually dispatched: the
     *  rest are parked polls it counted without running (host-side,
     *  like simEvents). */
    std::uint64_t dispatchedEvents = 0;

    /** True when the run drained all work and verified cleanly. */
    bool completed = false;

    /** How the run ended (refines `completed`). */
    RunOutcome outcome = RunOutcome::Completed;
    /** Diagnostic for Stalled / DrainTimeout outcomes: stage queue
     *  depths, in-flight counts, and the resident-block map. */
    std::string failureReason;
    /** Fault-injection and recovery counters. */
    FaultRecoveryStats faults;

    /**
     * Observability bundle of the run (trace, metrics, histograms,
     * time-series), present when the engine ran with an ObsConfig;
     * null otherwise. Shared so RunResult stays copyable.
     */
    std::shared_ptr<ObsData> obs;

    /** Serving-layer stats, present when the run was driven by a
     *  ServeSession (vp_serve); null otherwise. Shared so RunResult
     *  stays copyable. */
    std::shared_ptr<ServingRunStats> serving;
};

} // namespace vp

#endif // VP_CORE_RUN_RESULT_HH
