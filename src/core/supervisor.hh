/**
 * @file
 * Supervisor: the one run loop behind every engine entry point.
 *
 * It owns what single-device and sharded runs share: the trace-level
 * log clock, the boundary schedule (watchdog checkpoints, drain
 * timeout, sampler ticks, adaptive epochs, serve epochs, the cycle
 * limit and the event budget), the outcome classification and the
 * observability finish. An engine builds its device(s) and runner(s)
 * and hands over only what differs between them (SupervisedRun).
 *
 * Supervision happens only at slice boundaries: the loop cuts
 * Simulator::runUntil at the next scheduled boundary and samples the
 * engine's hooks in between. That costs no simulation events, so a
 * supervised run's event trace and cycle count match an unsupervised
 * one. A run with nothing armed is a single runUntil call — the
 * timeout-execute primitive of the auto-tuner (Fig. 10).
 */

#ifndef VP_CORE_SUPERVISOR_HH
#define VP_CORE_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "core/adaptive.hh"
#include "core/recovery.hh"
#include "core/run_result.hh"
#include "core/runtime.hh"
#include "obs/obs.hh"

namespace vp {

class ServeSession;

/** One engine run as the Supervisor sees it. */
struct SupervisedRun
{
    /** The application (verified on a clean drain). */
    AppDriver* driver = nullptr;
    /** The configuration (named in fatal diagnostics). */
    const PipelineConfig* config = nullptr;
    /** Abandon the run (nullopt) once virtual time passes this. */
    double cycleLimit = std::numeric_limits<double>::infinity();
    /** Livelock guard: fatal once this many events have fired. */
    std::uint64_t eventLimit = 0;

    /** @name Armed supervision (null / empty = off) @{ */

    /** Watchdog and drain-timeout policy. Non-null also means faults
     *  are in play: leftover work becomes a Stalled result instead
     *  of a fatal error. */
    const RecoveryConfig* recovery = nullptr;
    /** Sampler, tracer and provenance; attached to the result. */
    std::shared_ptr<ObsData> obs;
    /** Epoch period of the armed adaptive controller(s). */
    const AdaptiveConfig* adaptive = nullptr;
    /** Serving session and the seeder its epochs inject through. */
    ServeSession* serve = nullptr;
    Seeder* serveSeeder = nullptr;

    /** @} */

    /** @name Engine hooks @{ */

    /** Outstanding work (the group's counter when sharded). */
    const PendingCounter* pending = nullptr;
    /** Monotonic drain-progress heartbeat (also the serve session's
     *  queue-traffic counter). */
    std::function<std::uint64_t()> progress;
    /** Where work is stuck, for stall and timeout diagnostics. */
    std::function<std::string()> diagnose;
    /** One adaptive epoch over the runner(s). */
    std::function<void()> adaptEpoch;
    /** Relaunch retired kernels after serve-epoch seeding. */
    std::function<void()> serveWake;
    /** Gather the run's statistics, failover counters included. */
    std::function<RunResult()> collect;

    /** @} */
};

/** Drives a SupervisedRun to its classified outcome. */
class Supervisor
{
  public:
    /**
     * Bind to the run's simulator. Under VP_LOG=trace every log
     * record is prefixed with its simulated clock until the
     * Supervisor is destroyed, so structured failures unwind it too.
     */
    explicit Supervisor(Simulator& sim);
    ~Supervisor();

    Supervisor(const Supervisor&) = delete;
    Supervisor& operator=(const Supervisor&) = delete;

    /**
     * Run @p run to its end and classify the outcome. Fatal
     * (ErrorCode::Livelock) once run.eventLimit events have fired,
     * and fatal when a run without run.recovery drains its events
     * but leaves work pending.
     * @return the result, or nullopt when virtual time passed
     * run.cycleLimit first (timeout-execute).
     */
    std::optional<RunResult> run(const SupervisedRun& run);

  private:
    Simulator& sim_;
    bool logClock_ = false;
};

} // namespace vp

#endif // VP_CORE_SUPERVISOR_HH
