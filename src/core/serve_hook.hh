/**
 * @file
 * Engine-side hook for the serving layer (continuous request
 * ingest).
 *
 * A one-shot run seeds everything up front and drains. A serving run
 * instead pauses on *epoch boundaries* — zero-sim-event instants
 * carved out of the Supervisor's slicing loop, the same technique the
 * watchdog and metrics sampler use — and lets an attached
 * ServeSession admit freshly arrived requests and seed them into the
 * live pipeline. Between bursts the pipeline may drain dry; the
 * Supervisor then jumps the clock to the next boundary (legal: no
 * pending events) instead of ending the run, until the session
 * reports itself quiescent.
 *
 * vp_core only sees this abstract interface; the concrete session
 * (request generators, admission control, SLO accounting) lives in
 * vp_serve so the dependency points outward.
 */

#ifndef VP_CORE_SERVE_HOOK_HH
#define VP_CORE_SERVE_HOOK_HH

#include <cstdint>
#include <functional>

#include "sim/simulator.hh"

namespace vp {

class Seeder;
struct ObsData;
struct RunResult;

/** Wiring handed to a ServeSession when its run starts. */
struct ServeBinding
{
    Simulator* sim = nullptr;
    /** Epoch seeding path into the running pipeline. One seeder
     *  lives for the whole run: its routing ordinal keeps rolling
     *  across epochs so sharded seed placement stays deterministic. */
    Seeder* seeder = nullptr;
    /** The run's observability bundle (always present in serve mode;
     *  carries the armed provenance tracker). */
    ObsData* obs = nullptr;
    /** Relaunch kernels whose persistent blocks retired while the
     *  pipeline sat idle between bursts. Call after seeding. */
    std::function<void()> wake;
    /** Monotone queue-traffic counter (pushes + pops + transfer
     *  deliveries) for per-epoch snapshot deltas. */
    std::function<std::uint64_t()> queueTraffic;
};

/**
 * A serving session drives continuous ingest through an engine run.
 * The engine does not own the session (attach with
 * Engine::setServeSession); it must outlive the run. Serving
 * requires a Groups configuration, an armed provenance tracker
 * (lineage closure is how request completion is detected; request
 * roots are force-tracked, so a sampling stride > 1 only thins the
 * pre-seeded app items) and no scripted fault events (their
 * drain-notification triggers assume the one-shot drain).
 */
class ServeSession
{
  public:
    virtual ~ServeSession() = default;

    /** Epoch period in cycles (must be > 0). */
    virtual Tick epochCycles() const = 0;

    /** Bind to a starting run. */
    virtual void begin(const ServeBinding& b) = 0;

    /**
     * One epoch boundary at simulated time @p now: poll arrivals,
     * admit, seed, account completions. @return true while the
     * session may still produce or finish work (the engine keeps
     * slicing); false once fully quiescent, which lets the final
     * drain end the run.
     */
    virtual bool epoch(Tick now) = 0;

    /** Attach serving stats to @p r; @p end is the final sim time.
     *  Called once, before observability finalization. */
    virtual void finish(RunResult& r, Tick end) = 0;
};

} // namespace vp

#endif // VP_CORE_SERVE_HOOK_HH
