#include "core/supervisor.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/serve_hook.hh"

namespace vp {

Supervisor::Supervisor(Simulator& sim)
    : sim_(sim)
{
    // Other log levels never pay the std::function call.
    if (Logger::enabled(LogLevel::Trace)) {
        logClock_ = true;
        Logger::setClock([s = &sim_] { return s->now(); });
    }
}

Supervisor::~Supervisor()
{
    // processBatch tags trace-level records with the SM id too.
    if (logClock_) {
        Logger::setClock({});
        Logger::setSm(-1);
    }
}

std::optional<RunResult>
Supervisor::run(const SupervisedRun& r)
{
    ObsData* obs = r.obs.get();
    Tracer* tracer = obs ? obs->tracerPtr() : nullptr;
    const RecoveryConfig* rc = r.recovery;
    GroupCoordinator& group = *r.group;

    // Serving mode (core/serve_hook.hh): the session ingests requests
    // at epoch boundaries through one run-lifetime seeder, whose
    // ordinal rolls across epochs so placement is a pure function of
    // the admission order.
    Seeder serveSeeder;
    Tick serveEpoch = 0.0;
    bool serveActive = false;
    if (r.serve) {
        serveEpoch = r.serve->epochCycles();
        VP_CHECK(serveEpoch > 0.0, ErrorCode::Config,
                 "serve session must use a positive epoch period");
        serveSeeder = group.seeder();
        ServeBinding sb;
        sb.sim = &sim_;
        sb.seeder = &serveSeeder;
        sb.obs = obs;
        sb.wake = [g = r.group] { g->serveWake(); };
        sb.queueTraffic = [g = r.group] { return g->progress(); };
        r.serve->begin(sb);
        serveActive = true;
    }

    bool watchdogOn = rc && rc->watchdogIntervalCycles > 0.0;
    bool timeoutOn = rc && rc->drainTimeoutCycles > 0.0;
    bool samplerOn = obs && obs->sampler.enabled();
    bool adaptOn = r.adaptive != nullptr;

    // Slice the run at every scheduled boundary and sample the
    // coordinator's drain-progress heartbeat / metric probes between
    // slices. This costs no simulation events, so a healthy run's
    // event trace — and cycle count — is identical to an unsupervised
    // one.
    bool drained;
    std::optional<RunOutcome> failure;
    std::string reason;
    std::uint64_t lastProgress = watchdogOn ? group.progress() : 0;
    std::uint64_t lastEvents = sim_.eventsRun();
    int stalledChecks = 0;
    constexpr Tick kInf = std::numeric_limits<Tick>::infinity();
    Tick checkpoint = watchdogOn ? rc->watchdogIntervalCycles : kInf;
    Tick sampNext = samplerOn ? obs->sampler.interval() : kInf;
    Tick adaptNext = adaptOn ? r.adaptive->epochCycles : kInf;
    Tick serveNext = serveActive ? serveEpoch : kInf;
    // One serve epoch at @p serveNext. runUntil already delivered
    // every event at or before the boundary, so the clock hop is
    // zero-event (and legal on a drained heap).
    auto serveTick = [&] {
        if (sim_.now() < serveNext)
            sim_.advanceTo(serveNext);
        serveActive = r.serve->epoch(serveNext);
        serveNext = serveActive ? serveNext + serveEpoch : kInf;
    };
    for (;;) {
        Tick target = std::min({checkpoint, sampNext, adaptNext,
                                serveNext, r.cycleLimit});
        if (timeoutOn)
            target = std::min(target, rc->drainTimeoutCycles);
        std::uint64_t budget = r.eventLimit > sim_.eventsRun()
            ? r.eventLimit - sim_.eventsRun()
            : 0;
        drained = sim_.runUntil(target, budget);
        if (drained) {
            if (serveActive) {
                // The pipeline idled dry between bursts: let the
                // session refill it at the next boundary.
                serveTick();
                continue;
            }
            break;
        }
        if (sim_.eventsRun() >= r.eventLimit || target >= r.cycleLimit)
            break;
        if (samplerOn && target >= sampNext) {
            obs->sampler.sampleAt(sampNext);
            sampNext += obs->sampler.interval();
        }
        if (adaptOn && target >= adaptNext) {
            group.adaptEpoch();
            adaptNext += r.adaptive->epochCycles;
        }
        if (serveActive && target >= serveNext)
            serveTick();
        if (timeoutOn && target >= rc->drainTimeoutCycles) {
            failure = RunOutcome::DrainTimeout;
            reason = "global drain timeout ("
                + std::to_string(rc->drainTimeoutCycles)
                + " cycles) elapsed\n" + group.diagnose();
            break;
        }
        if (!watchdogOn || target < checkpoint)
            continue;
        std::uint64_t progress = group.progress();
        std::uint64_t events = sim_.eventsRun();
        if (tracer) {
            tracer->instant(TraceKind::WatchdogCheck, 0, sim_.now(),
                            stalledChecks);
        }
        if (progress != lastProgress) {
            stalledChecks = 0;
        } else if (events != lastEvents && group.pending().value() > 0) {
            // Events are being dispatched but the queues are silent:
            // the pipeline is spinning (polls, commit retries)
            // without moving work. A window with NO events is not
            // counted — the simulator is merely jumping time toward
            // a scheduled future event (memcpy completion, retry
            // backoff), which is legitimate waiting, not a stall.
            if (++stalledChecks >= rc->watchdogStallChecks) {
                failure = RunOutcome::Stalled;
                reason = "watchdog: no drain progress for "
                    + std::to_string(stalledChecks) + " checks\n"
                    + group.diagnose();
                break;
            }
        }
        lastProgress = progress;
        lastEvents = events;
        checkpoint += rc->watchdogIntervalCycles;
    }

    // Close out the run's trace and attach the observability data to
    // whatever result goes back to the caller.
    auto finish = [&](RunResult& result) {
        if (r.serve)
            r.serve->finish(result, sim_.now());
        if (!obs)
            return;
        if (tracer) {
            tracer->span(TraceKind::RunSpan, 0, 0.0, sim_.now(),
                         tracer->intern(result.configName));
        }
        if (obs->provenance)
            obs->provenance->finalize(obs->metrics);
        result.obs = r.obs;
    };
    // A structured failure. The tail of the trace ring is the flight
    // recorder: append it to the diagnostic so post-mortems need no
    // separate export step.
    auto failed = [&](RunOutcome outcome, std::string why) {
        RunResult result = group.collect();
        result.completed = false;
        result.outcome = outcome;
        if (tracer && obs->config.diagnosticTailEvents > 0) {
            why += "\nlast trace events:\n"
                + tracer->tail(obs->config.diagnosticTailEvents);
        }
        result.failureReason = std::move(why);
        return result;
    };
    auto describe = [&r] {
        return r.config->describe(r.driver->pipeline());
    };

    if (failure) {
        RunResult result = failed(*failure, std::move(reason));
        result.faults.watchdogFired = *failure == RunOutcome::Stalled;
        finish(result);
        return result;
    }
    if (!drained) {
        VP_CHECK(sim_.eventsRun() < r.eventLimit, ErrorCode::Livelock,
                 "run exceeded the event limit ("
                 << r.eventLimit << ") — livelock in config `"
                 << describe() << "`?");
        VP_DEBUG("engine: timeout at " << sim_.now()
                 << " cycles for `" << describe() << "`");
        return std::nullopt;
    }
    if (group.pending().value() != 0) {
        // With faults in play, leftover work is a diagnosable stall
        // (e.g., every SM died), not a programming error.
        VP_REQUIRE(rc != nullptr,
                   "run drained events but left work pending (config `"
                   << describe() << "`)");
        RunResult result = failed(
            RunOutcome::Stalled,
            "drained events but work is left\n" + group.diagnose());
        finish(result);
        return result;
    }

    RunResult result = group.collect();
    // A serving run has no one-shot verify(): the pipeline was
    // re-seeded continuously, so per-request conservation — checked
    // by the session — replaces the app's whole-workload check. A
    // replayed run produced no output at all.
    result.completed =
        r.serve || r.replayed ? true : r.driver->verify();
    // Surviving a device kill or link failure is by definition a
    // degraded run, even when every item still made it through: the
    // group no longer matches its configuration.
    const FaultRecoveryStats& f = result.faults;
    bool failedOver =
        f.devicesFailed > 0 || f.linksFailed > 0 || f.linksDegraded > 0;
    if (result.completed) {
        result.outcome =
            failedOver ? RunOutcome::Degraded : RunOutcome::Completed;
    } else if (failedOver || f.deadLettered > 0 || f.droppedPushes > 0) {
        result.outcome = RunOutcome::Degraded;
    } else {
        result.outcome = RunOutcome::VerifyFailed;
    }
    finish(result);
    return result;
}

} // namespace vp
