/**
 * @file
 * Deterministic fault injection for the simulated GPU runtime.
 *
 * A FaultPlan describes which faults to inject into a run: transient
 * task failures and slowdowns (ECC-style soft errors), SM kill or
 * throughput-degradation events at scripted times, dropped/corrupted
 * queue pushes, and delayed kernel launches. A FaultInjector turns
 * the plan into a pure decision oracle: every injection decision is
 * drawn from per-fault-class PCG32 streams seeded from the plan, so a
 * given (plan, workload) pair replays bit-identically — faults are
 * ordinary engine events, never wall-clock dependent.
 *
 * The injector only decides; the runtime layers (Device, runners,
 * RecoveryManager) act on the decisions and count them. Keeping the
 * oracle stateless apart from its RNG streams is what makes the
 * "injection compiled in but disabled" overhead requirement cheap to
 * meet: when a plan injects nothing, the runtime never consults the
 * oracle at all.
 */

#ifndef VP_SIM_FAULT_HH
#define VP_SIM_FAULT_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "sim/simulator.hh"

namespace vp {

/** A scripted mid-run SM event: kill it or degrade its throughput. */
struct SmFaultEvent
{
    enum class Kind
    {
        /** Take the SM offline; resident blocks are evicted. */
        Kill,
        /** Scale the SM's issue/memory throughput by `factor`. */
        Degrade,
    };

    /** Virtual time (cycles) at which the event fires. */
    Tick time = 0.0;
    /** Target SM index (local to the target device). */
    int sm = 0;
    Kind kind = Kind::Kill;
    /** Throughput multiplier for Degrade (0 < factor <= 1). */
    double factor = 0.5;
    /** Target device of a multi-device group (0 on single device). */
    int device = 0;
};

/**
 * A scripted transient-task-fault trigger: fail the next `count`
 * task fetches matching (sm, stage) at or after `atOrAfter`.
 * Negative sm/stage act as wildcards.
 */
struct ScriptedTaskFault
{
    Tick atOrAfter = 0.0;
    int sm = -1;
    int stage = -1;
    int count = 1;
};

/**
 * A scripted whole-device failure: every SM of the device goes
 * offline at once, its resident blocks are evicted, and the group
 * coordinator re-homes the device's pinned stages onto survivors.
 * Only meaningful for multi-device (sharded) runs.
 */
struct DeviceFaultEvent
{
    /** Virtual time (cycles) at which the device dies. */
    Tick time = 0.0;
    /** Target device index within the group. */
    int device = 0;
};

/**
 * A scripted interconnect path event between two group members:
 * fail the src -> dst path for all future transfers, or scale its
 * bandwidth. Transfers already in flight when the path fails still
 * arrive (the payload has left the source).
 */
struct LinkFaultEvent
{
    enum class Kind
    {
        /** The src -> dst path becomes unusable for new transfers;
         *  items pushed over it are dead-lettered. */
        Fail,
        /** The path's bandwidth is scaled by `factor`. */
        Degrade,
    };

    /** Virtual time (cycles) at which the event fires. */
    Tick time = 0.0;
    int src = 0;
    int dst = 0;
    Kind kind = Kind::Fail;
    /** Bandwidth multiplier for Degrade (0 < factor <= 1). */
    double factor = 0.5;
};

/**
 * Seeded, config-driven description of the faults to inject into one
 * run. All probabilities are per-item (or per-push / per-launch);
 * zero disables that fault class without consuming RNG draws.
 */
struct FaultPlan
{
    /** Seed for the per-class decision streams. */
    std::uint64_t seed = 1;

    /** Probability a fetched task fails transiently and must retry. */
    double taskFailProb = 0.0;
    /** Probability a batch executes slowed by `taskSlowFactor`. */
    double taskSlowProb = 0.0;
    /** Execution-time multiplier for slowed batches (>= 1). */
    double taskSlowFactor = 4.0;

    /** Probability a queue push is silently dropped. */
    double pushDropProb = 0.0;
    /** Probability a queue push is corrupted (detected at commit,
     *  item dead-lettered after charging `faultDetectCycles`). */
    double pushCorruptProb = 0.0;

    /** Probability a kernel launch is delayed. */
    double launchDelayProb = 0.0;
    /** Extra launch latency (cycles) when a launch is delayed. */
    Tick launchDelayCycles = 5000.0;

    /** Cycles charged to detect and handle one injected fault. */
    Tick faultDetectCycles = 200.0;

    /** Scripted SM kill/degrade events. */
    std::vector<SmFaultEvent> smEvents;
    /** Scripted transient-task-fault triggers. */
    std::vector<ScriptedTaskFault> scripted;
    /** Scripted whole-device failures (sharded runs only). */
    std::vector<DeviceFaultEvent> deviceEvents;
    /** Scripted interconnect fail/degrade events (sharded runs). */
    std::vector<LinkFaultEvent> linkEvents;

    /** True when any task-level fault (probabilistic or scripted)
     *  can fire — batches then consult the injector at fetch. */
    bool
    anyTaskFaults() const
    {
        return taskFailProb > 0.0 || taskSlowProb > 0.0
            || !scripted.empty();
    }

    /** True when any push-level fault can fire. */
    bool
    anyPushFaults() const
    {
        return pushDropProb > 0.0 || pushCorruptProb > 0.0;
    }

    /** True when whole-device failures are scripted. */
    bool anyDeviceFaults() const { return !deviceEvents.empty(); }

    /** True when interconnect fail/degrade events are scripted. */
    bool anyLinkFaults() const { return !linkEvents.empty(); }

    /** True when the plan injects anything at all. */
    bool
    enabled() const
    {
        return anyTaskFaults() || anyPushFaults()
            || launchDelayProb > 0.0 || !smEvents.empty()
            || anyDeviceFaults() || anyLinkFaults();
    }

    /**
     * Raise FatalError(Config) on out-of-range fields, including
     * non-finite delays, factors and event times. A scripted
     * trigger's `atOrAfter` may be +inf (never).
     */
    void validate() const;

    /**
     * Raise FatalError(Config) when any scripted event targets a
     * device, SM, or stage that does not exist in the configured
     * run — a scripted fault that can never fire is a plan bug, not
     * a no-op. @p smsPerDevice holds the SM count of every group
     * member (one entry for single-device runs); @p stageCount the
     * pipeline's stage count (negative skips stage checks).
     */
    void validateTargets(const std::vector<int>& smsPerDevice,
                         int stageCount) const;
};

/** Outcome of a push-fault decision. */
enum class PushFault
{
    None,
    /** The push is silently lost (item never reaches the queue). */
    Drop,
    /** The push lands corrupted; consumer-side detection
     *  dead-letters it after the detection cost. */
    Corrupt,
};

/**
 * Deterministic decision oracle for one run. Each fault class draws
 * from its own PCG32 stream, so enabling one class never perturbs
 * the decisions of another — a plan with only SM events replays the
 * exact transient-fault decisions of a plan with none.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan& plan);

    const FaultPlan& plan() const { return plan_; }

    /**
     * Decide how many of @p items fetched for @p stage on @p sm at
     * time @p now fail transiently. Scripted triggers match first
     * (and are consumed); the probabilistic stream covers the rest.
     */
    int fetchFaults(int stage, int sm, int items, Tick now);

    /** Decide the slowdown multiplier for one batch (1.0 = none). */
    double slowFactor();

    /** Decide the fate of one queue push. */
    PushFault pushFault();

    /** Decide the extra latency for one kernel launch (0 = none). */
    Tick launchDelay();

  private:
    FaultPlan plan_;
    Rng failRng_;
    Rng slowRng_;
    Rng pushRng_;
    Rng launchRng_;
    /** Remaining fail budget per scripted trigger. */
    std::vector<int> scriptedLeft_;
};

} // namespace vp

#endif // VP_SIM_FAULT_HH
