#include "core/engine.hh"

#include <limits>
#include <memory>

#include "core/supervisor.hh"

namespace vp {

Engine::Engine(DeviceConfig cfg)
    : cfg_(std::move(cfg))
{
}

RunResult
Engine::run(AppDriver& driver, const PipelineConfig& config,
            TaskGraph* capture) const
{
    auto r = runSingle(driver, config,
                       std::numeric_limits<double>::infinity(), capture,
                       nullptr);
    VP_ASSERT(r.has_value(), "untimed run reported a timeout");
    return *r;
}

std::optional<RunResult>
Engine::runTimed(AppDriver& driver, const PipelineConfig& config,
                 double cycleLimit, const TaskGraph* replay) const
{
    return runSingle(driver, config, cycleLimit, nullptr, replay);
}

bool
Engine::canReplay(AppDriver& driver) const
{
    if (!driver.keyedItems() || plan_ || recovery_ || obsCfg_ || serve_)
        return false;
    const Pipeline& pipe = driver.pipeline();
    for (int s = 0; s < pipe.stageCount(); ++s)
        if (pipe.stage(s).queueCapacity > 0)
            return false;
    return true;
}

void
Engine::requireTaskGraph(AppDriver& driver, const TaskGraph& graph) const
{
    VP_CHECK(canReplay(driver), ErrorCode::Config,
             "task-graph capture and replay need an app that declares "
             "keyed items, no bounded stage, and no fault plan, "
             "recovery policy, observability or serving session");
    const Pipeline& pipe = driver.pipeline();
    VP_CHECK(graph.stageCount() == pipe.stageCount(), ErrorCode::Config,
             "task graph spans " << graph.stageCount() << " stages, "
             << driver.name() << " has " << pipe.stageCount());
    for (int s = 0; s < pipe.stageCount(); ++s)
        VP_CHECK(pipe.stage(s).keyable(), ErrorCode::Config,
                 driver.name() << " declares keyed items, but the items "
                 "of stage `" << pipe.stage(s).name << "` have no byte "
                 "key (padding or floating-point members)");
}

std::optional<RunResult>
Engine::runSingle(AppDriver& driver, const PipelineConfig& config,
                  double cycleLimit, TaskGraph* capture,
                  const TaskGraph* replay) const
{
    Pipeline& pipe = driver.pipeline();
    pipe.validate();
    config.validate(pipe, cfg_);
    if (capture)
        requireTaskGraph(driver, *capture);
    if (replay)
        requireTaskGraph(driver, *replay);
    driver.reset();
    pipe.resetStages();

    Simulator sim;
    Device dev(sim, cfg_);
    Host host(sim, dev);

    // Under VP_LOG=trace, log records carry this run's clock until
    // the Supervisor unwinds, on every return path.
    Supervisor supervisor(sim);

    // All fault/recovery state lives on this stack frame, keeping
    // runTimed const and re-entrant: repeated runs under the same
    // plan are bit-reproducible because each builds a fresh seeded
    // injector.
    std::optional<FaultInjector> injector;
    FaultContext fc;
    RecoveryConfig rc;
    bool faulted = plan_.has_value() || recovery_.has_value();

    // Observability state is per-run and shares the run's stack
    // discipline: a fresh ObsData keeps repeated runs independent,
    // and the shared_ptr survives into RunResult::obs so callers can
    // export traces after the run stack unwinds.
    std::shared_ptr<ObsData> obs;
    if (obsCfg_) {
        obs = std::make_shared<ObsData>(*obsCfg_, &sim);
        dev.setTracer(obs->tracerPtr());
        fc.obs = obs.get();
    }

    if (plan_) {
        plan_->validate();
        // Eager target validation: a scripted event aimed at a
        // device/SM/stage this run does not have is rejected up
        // front instead of silently never firing.
        plan_->validateTargets({dev.numSms()}, pipe.stageCount());
        VP_CHECK(!plan_->anyDeviceFaults() && !plan_->anyLinkFaults(),
                 ErrorCode::Config,
                 "fault plan scripts device/link failures but this "
                 "is a single-device run");
        injector.emplace(*plan_);
        fc.injector = &*injector;
        dev.setFaultInjector(&*injector);
    }
    if (recovery_) {
        recovery_->validate();
        rc = *recovery_;
        fc.recovery = &*recovery_;
    }

    fc.capture = capture;
    fc.replay = replay;
    auto runner = makeRunner(sim, dev, host, pipe, config, fc);

    // Scripted SM failures/degradations become ordinary engine
    // events. Outstanding ones are cancelled when the pipeline
    // drains, so a fault scheduled past the natural end of the run
    // neither fires into a dead device nor inflates the run time.
    if (plan_ && !plan_->smEvents.empty()) {
        auto handles = std::make_shared<std::vector<EventHandle>>();
        for (const SmFaultEvent& e : plan_->smEvents) {
            // Range checks already ran in validateTargets above.
            handles->push_back(sim.at(e.time, [&dev, e] {
                if (dev.sm(e.sm).offline())
                    return;
                if (e.kind == SmFaultEvent::Kind::Kill)
                    dev.failSm(e.sm);
                else
                    dev.degradeSm(e.sm, e.factor);
            }));
        }
        runner->pending().notifyOnDrain([&sim, handles] {
            for (EventHandle h : *handles)
                sim.cancel(h);
        });
    }

    if (obs && obs->sampler.enabled())
        runner->registerProbes(obs->sampler);

    // Arm the adaptive load-balance controller (if configured and
    // the runner has an adjustable partition) before seeding, so the
    // depth EWMAs see every push from the first item on.
    bool adaptOn = false;
    if (adaptiveCfg_ && adaptiveCfg_->enabled) {
        adaptiveCfg_->validate();
        adaptOn = runner->armAdaptive(*adaptiveCfg_);
    }

    runner->start(driver);

    SupervisedRun sr;
    sr.driver = &driver;
    sr.config = &config;
    sr.cycleLimit = cycleLimit;
    sr.eventLimit = eventLimit_;
    sr.replayed = replay != nullptr;
    sr.recovery = faulted ? &rc : nullptr;
    sr.obs = obs;
    sr.adaptive = adaptOn ? &*adaptiveCfg_ : nullptr;
    sr.pending = &runner->pending();
    sr.progress = [r = runner.get()] { return r->drainProgress(); };
    sr.diagnose = [r = runner.get()] { return r->diagnoseStall(); };
    sr.adaptEpoch = [r = runner.get()] { r->adaptEpoch(); };
    sr.collect = [r = runner.get()] { return r->collect(); };

    // Serving mode: the attached session ingests requests at epoch
    // boundaries through a run-lifetime Seeder and re-wakes retired
    // kernels; provenance lineage closure reports request completion
    // back to it (core/serve_hook.hh).
    Seeder serveSeeder;
    if (serve_) {
        VP_CHECK(config.top == PipelineConfig::Top::Groups,
                 ErrorCode::Config,
                 "serving requires a Groups configuration");
        VP_CHECK(obs && obs->provenance, ErrorCode::Config,
                 "serving requires an armed provenance tracker "
                 "(ServingEngine arms it; request roots are "
                 "force-tracked regardless of the sampling stride)");
        VP_CHECK(!plan_ || plan_->smEvents.empty(), ErrorCode::Config,
                 "serving cannot combine with scripted SM fault "
                 "events (their drain-cancellation trigger assumes "
                 "the one-shot drain)");
        serveSeeder = runner->serveSeeder();
        sr.serve = serve_;
        sr.serveSeeder = &serveSeeder;
        sr.serveWake = [r = runner.get()] { r->serveWake(); };
    }
    return supervisor.run(sr);
}

} // namespace vp
