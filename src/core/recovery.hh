/**
 * @file
 * Runtime recovery from injected faults: retry policy with capped
 * exponential backoff, dead-letter accounting, and the redelivery
 * buffer that keeps termination detection exact while failed items
 * wait out their backoff.
 *
 * The watchdog and drain timeout live in the Supervisor
 * (core/supervisor.hh), the one run loop behind every run: it
 * slices Simulator::runUntil at checkpoint boundaries and samples the
 * engine's drain-progress heartbeat, so a healthy run pays no extra
 * simulation events for being supervised.
 */

#ifndef VP_CORE_RECOVERY_HH
#define VP_CORE_RECOVERY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "queueing/work_queue.hh"
#include "sim/simulator.hh"

namespace vp {

class GroupCoordinator;

/** Retry/backoff/watchdog policy for one run. */
struct RecoveryConfig
{
    /** Transient-failure retries per item before dead-lettering. */
    std::uint32_t maxRetries = 3;

    /** Backoff before the first redelivery, cycles. */
    Tick backoffBaseCycles = 500.0;
    /** Backoff growth per retry. */
    double backoffFactor = 2.0;
    /** Backoff ceiling, cycles. */
    Tick backoffCapCycles = 16000.0;

    /**
     * Drain-progress heartbeat sampling interval, cycles. The
     * watchdog fires after `watchdogStallChecks` consecutive samples
     * with no progress while work is pending. 0 disables it.
     */
    Tick watchdogIntervalCycles = 1000000.0;
    /** Consecutive stalled samples before the watchdog fires. */
    int watchdogStallChecks = 4;

    /**
     * Global drain timeout, cycles of virtual time; a run still
     * pending past this point returns a structured DrainTimeout
     * result instead of spinning to the cycle cap. 0 disables it.
     */
    Tick drainTimeoutCycles = 0.0;

    /** Backoff before redelivering an item on its n-th try (n>=1). */
    Tick backoffFor(std::uint32_t tries) const;

    /**
     * Raise FatalError(Config) on out-of-range fields. The backoff
     * base and factor must be finite, and so must the largest
     * backoff, backoffFor(maxRetries), which an infinite cap leaves
     * to the factor; the watchdog interval and the drain timeout may
     * be +inf (never).
     */
    void validate() const;
};

/** Fault and recovery counters of one run (RunResult::faults). */
struct FaultRecoveryStats
{
    /** Transient task faults injected at fetch time. */
    std::uint64_t taskFaults = 0;
    /** Items scheduled for retry (transient faults + SM-kill
     *  replays of retryable stages). */
    std::uint64_t tasksRetried = 0;
    /** Items abandoned: retries exhausted, corrupted in transit, or
     *  lost with a non-retryable stage's evicted block. */
    std::uint64_t deadLettered = 0;
    /** Queue pushes silently dropped by injection. */
    std::uint64_t droppedPushes = 0;
    /** Queue pushes corrupted in transit (detected + dead-lettered
     *  at commit). */
    std::uint64_t corruptedPushes = 0;
    /** Batches slowed by transient throughput faults. */
    std::uint64_t slowdowns = 0;
    /** Commit attempts that waited on a full downstream queue. */
    std::uint64_t backpressureWaits = 0;
    /** Kernels relaunched to re-provision work after an SM loss. */
    std::uint64_t degradeRelaunches = 0;
    /** Kernel launches delayed by injection (device counter). */
    std::uint64_t launchDelays = 0;
    /** SMs killed / degraded (device counters). */
    int smsFailed = 0;
    int smsDegraded = 0;
    /** Resident blocks evicted by SM failures (device counter). */
    int blocksEvicted = 0;
    /** True when the stall watchdog converted a hang into a
     *  structured failure. */
    bool watchdogFired = false;

    /** @name Failover (multi-device device/link failures) @{ */

    /** Whole devices killed by scripted device faults. */
    int devicesFailed = 0;
    /** Interconnect paths failed / degraded by scripted events. */
    int linksFailed = 0;
    int linksDegraded = 0;
    /** Pinned stages re-homed onto a survivor device. */
    int stagesRehomed = 0;
    /** In-flight transfers whose destination died mid-flight,
     *  redelivered to the new home through the recovery buffer. */
    std::uint64_t transfersRedelivered = 0;
    /** Items drained out of a dead device's queues at kill time. */
    std::uint64_t itemsEvacuated = 0;

    /** @} */

    /** Fold in another device's counters: each adds, and
     *  watchdogFired holds if either fired. */
    FaultRecoveryStats&
    operator+=(const FaultRecoveryStats& o)
    {
        taskFaults += o.taskFaults;
        tasksRetried += o.tasksRetried;
        deadLettered += o.deadLettered;
        droppedPushes += o.droppedPushes;
        corruptedPushes += o.corruptedPushes;
        slowdowns += o.slowdowns;
        backpressureWaits += o.backpressureWaits;
        degradeRelaunches += o.degradeRelaunches;
        launchDelays += o.launchDelays;
        smsFailed += o.smsFailed;
        smsDegraded += o.smsDegraded;
        blocksEvicted += o.blocksEvicted;
        watchdogFired = watchdogFired || o.watchdogFired;
        devicesFailed += o.devicesFailed;
        linksFailed += o.linksFailed;
        linksDegraded += o.linksDegraded;
        stagesRehomed += o.stagesRehomed;
        transfersRedelivered += o.transfersRedelivered;
        itemsEvacuated += o.itemsEvacuated;
        return *this;
    }
};

/**
 * Buffers items that failed transiently and redelivers them to their
 * stage queue after backoff. Items in the buffer count as future
 * work, so persistent blocks keep polling (and the KBK host keeps
 * scheduling passes) instead of retiring before redelivery.
 */
class RecoveryManager
{
  public:
    /**
     * Wire up; must be called before use. @p group and @p device
     * place the owning runner in its run's device group: each
     * redelivery lands where GroupCoordinator::redirect says, so
     * once the device has died, batches scheduled against its queues
     * land on the stage's new home.
     */
    void init(Simulator* sim, const RecoveryConfig* cfg,
              int stageCount, GroupCoordinator* group, int device);

    /**
     * Schedule @p redeliver(*q) after the backoff for @p tries;
     * @p count items become buffered for @p stage until then.
     */
    void scheduleRedeliver(int stage, QueueBase* q,
                           std::function<void(QueueBase&)> redeliver,
                           int count, std::uint32_t tries);

    /** Items currently awaiting redelivery for @p stage. */
    std::int64_t
    buffered(int stage) const
    {
        return buffered_[static_cast<std::size_t>(stage)];
    }

    /** Items awaiting redelivery across all stages. */
    std::int64_t totalBuffered() const;

    /** Redelivery batches executed so far. */
    std::uint64_t redeliveries() const { return redeliveries_; }

    /**
     * Callback fired after each redelivery lands, with the stage
     * index; runners without polling workers (DP) use it to spawn a
     * kernel for the redelivered items.
     */
    void
    setOnRedelivered(std::function<void(int)> fn)
    {
        onRedelivered_ = std::move(fn);
    }

    /** Attach the run tracer (null detaches; never owned): each
     *  redelivery landing records a Redeliver instant. */
    void setTracer(Tracer* t) { tracer_ = t; }

  private:
    Simulator* sim_ = nullptr;
    const RecoveryConfig* cfg_ = nullptr;
    std::vector<std::int64_t> buffered_;
    std::uint64_t redeliveries_ = 0;
    std::function<void(int)> onRedelivered_;
    GroupCoordinator* group_ = nullptr;
    int device_ = 0;
    Tracer* tracer_ = nullptr;
};

} // namespace vp

#endif // VP_CORE_RECOVERY_HH
