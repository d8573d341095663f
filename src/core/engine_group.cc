/**
 * @file
 * The one run set-up behind every Engine entry point: a run executes
 * one pipeline over the devices of a DeviceGroup under a ShardPlan.
 * A plain run is the one-device group of the engine's first device
 * under a replicate-all plan.
 *
 * Engine::runGroup validates the run, builds the simulator, the
 * device group, the fault injector and the observability bundle,
 * and hands the rest to one GroupCoordinator (core/runtime.hh) and
 * the Supervisor. The coordinator's members are defined here too.
 */

#include "core/engine.hh"

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/supervisor.hh"

namespace vp {

Engine::Engine(DeviceGroupConfig group)
    : cfg_(group.devices.empty() ? DeviceConfig{} : group.devices[0])
{
    group.validate();
    group_ = std::move(group);
}

GroupCoordinator::GroupCoordinator(Simulator& sim, DeviceGroup& group,
                                   Pipeline& pipe,
                                   const PipelineConfig& cfg,
                                   const ShardPlan& plan, bool sharded,
                                   RunnerContext rc)
    : sim_(sim), group_(group), icx_(group.interconnect()), pipe_(pipe),
      cfg_(cfg), plan_(plan), sharded_(sharded), obs_(rc.obs),
      tracer_(obs_ ? obs_->tracerPtr() : nullptr),
      prov_(obs_ ? obs_->provenancePtr() : nullptr),
      capture_(rc.capture), replay_(rc.replay)
{
    auto n = static_cast<std::size_t>(group.size());
    auto stages = static_cast<std::size_t>(pipe.stageCount());
    inTransit_.assign(stages, 0);
    alive_.assign(n, 1);
    homeOverride_.assign(stages, -1);
    evacuated_.assign(n, 0);
    rehomedIn_.assign(n, 0);
    linkDeadLettered_.assign(stages, 0);

    rc.group = this;
    for (int i = 0; i < group.size(); ++i) {
        rc.device = i;
        runners_.push_back(makeRunner(sim, group.device(i), group.host(i),
                                      pipe, cfg, rc));
    }
}

void
GroupCoordinator::scheduleFaults(const FaultPlan& plan)
{
    for (const SmFaultEvent& e : plan.smEvents) {
        Device& dev = group_.device(e.device);
        faultEvents_.push_back(sim_.at(e.time, [&dev, e] {
            if (dev.sm(e.sm).offline())
                return;
            if (e.kind == SmFaultEvent::Kind::Kill)
                dev.failSm(e.sm);
            else
                dev.degradeSm(e.sm, e.factor);
        }));
    }
    for (const DeviceFaultEvent& e : plan.deviceEvents)
        faultEvents_.push_back(
            sim_.at(e.time, [this, d = e.device] { killDevice(d); }));
    for (const LinkFaultEvent& e : plan.linkEvents)
        faultEvents_.push_back(
            sim_.at(e.time, [this, e] { linkEvent(e); }));
    if (!faultEvents_.empty())
        pending_.notifyOnDrain([this] {
            for (EventHandle h : faultEvents_)
                sim_.cancel(h);
        });
}

void
GroupCoordinator::registerProbes(Sampler& sampler)
{
    for (auto& r : runners_)
        r->registerProbes(sampler);
    if (sharded_)
        sampler.addSeries("interconnect_in_flight", [this] {
            return static_cast<double>(icx_.inFlight());
        });
}

bool
GroupCoordinator::armAdaptive(const AdaptiveConfig& ac)
{
    bool any = false;
    for (auto& r : runners_)
        any = r->armAdaptive(ac) || any;
    return any;
}

void
GroupCoordinator::start(AppDriver& driver)
{
    if (cfg_.top != PipelineConfig::Top::Kbk
        && cfg_.top != PipelineConfig::Top::KbkStream) {
        for (int f = 0; f < driver.flowCount(); ++f) {
            Seeder s = seeder();
            s.flow_ = f;
            driver.seedFlow(s, f);
        }
    }
    for (auto& r : runners_)
        r->start(driver);
}

Seeder
GroupCoordinator::seeder()
{
    Seeder s;
    s.pipe_ = &pipe_;
    s.prov_ = prov_;
    s.capture_ = capture_;
    s.replay_ = replay_;
    s.pending_ = &pending_;
    s.route_ = [this](int stage, int ordinal) -> QueueBase& {
        int home = plan_.homeDevice(stage);
        int dev = home >= 0 ? home
                            : shardSeedDevice(stage, ordinal, size());
        return runners_[static_cast<std::size_t>(dev)]->deliveryQueue(
            stage, static_cast<std::uint64_t>(ordinal));
    };
    return s;
}

int
GroupCoordinator::curHome(int stage) const
{
    int o = homeOverride_[static_cast<std::size_t>(stage)];
    return o >= 0 ? o : plan_.homeDevice(stage);
}

int
GroupCoordinator::liveTarget(int stage) const
{
    // Pinned homes are always live outside killDevice itself: death
    // re-homes them at once.
    int home = curHome(stage);
    if (home >= 0)
        return home;
    for (std::size_t d = 0; d < alive_.size(); ++d)
        if (alive_[d])
            return static_cast<int>(d);
    return 0;
}

void
GroupCoordinator::forward(int from, int stage, int bytes,
                          std::uint64_t provId, const void* tag,
                          std::function<void(QueueBase&)> deliver)
{
    int home = curHome(stage);
    VP_ASSERT(home >= 0, "remote forward of an unpinned stage");
    if (!icx_.pathUsable(from, home)) {
        // Both endpoints alive but the link between them failed: the
        // item is lost in a structured way. Ledger it (conservation)
        // and release its pending unit so the group can still drain.
        ++linkDeadLettered_[static_cast<std::size_t>(stage)];
        ++failover_.deadLettered;
        pending_.sub(1);
        if (prov_ && provId)
            prov_->noteDeadLetter(provId, sim_.now());
        if (tracer_)
            tracer_->instant(TraceKind::DeadLetter, 0, sim_.now(), stage,
                             1);
        return;
    }
    if (prov_ && provId)
        prov_->noteForward(provId, stage, from, home, sim_.now());
    ++inTransit_[static_cast<std::size_t>(stage)];
    icx_.transfer(from, home, static_cast<double>(bytes),
                  [this, home, stage, tag,
                   deliver = std::move(deliver)]() mutable {
                      arrive(home, stage, tag, std::move(deliver));
                  });
}

void
GroupCoordinator::arrive(int home, int stage, const void* tag,
                         std::function<void(QueueBase&)> deliver)
{
    --inTransit_[static_cast<std::size_t>(stage)];
    if (!alive_[static_cast<std::size_t>(home)]) {
        // The destination died while the payload was in flight:
        // redeliver through the new home's recovery buffer. The
        // pending unit stays charged, so termination waits for it.
        int nh = liveTarget(stage);
        ++failover_.transfersRedelivered;
        if (tracer_)
            tracer_->instant(TraceKind::TransferRedeliver, 0, sim_.now(),
                             stage, nh);
        runners_[static_cast<std::size_t>(nh)]->redeliverForeign(
            stage, deliverySeq_++, std::move(deliver));
        return;
    }
    QueueBase& q = runners_[static_cast<std::size_t>(home)]->deliveryQueue(
        stage, deliverySeq_++);
    q.stampNextPushTag(tag);
    deliver(q);
}

bool
GroupCoordinator::remoteFull(int from, int stage) const
{
    std::size_t cap = pipe_.stage(stage).queueCapacity;
    if (cap == 0)
        return false;
    int home = curHome(stage);
    if (home < 0 || !icx_.pathUsable(from, home))
        return false;
    std::size_t charged =
        runners_[static_cast<std::size_t>(home)]->queuedFor(stage)
        + static_cast<std::size_t>(
            inTransit_[static_cast<std::size_t>(stage)]);
    return charged >= cap;
}

bool
GroupCoordinator::remoteWork(int from, StageMask relevant) const
{
    if (icx_.inFlight() > 0)
        return true;
    for (std::size_t j = 0; j < runners_.size(); ++j)
        if (static_cast<int>(j) != from
            && runners_[j]->localWork(relevant))
            return true;
    return false;
}

QueueBase*
GroupCoordinator::redirect(int device, int stage)
{
    if (alive_[static_cast<std::size_t>(device)])
        return nullptr;
    int nh = liveTarget(stage);
    return &runners_[static_cast<std::size_t>(nh)]->deliveryQueue(
        stage, deliverySeq_++);
}

void
GroupCoordinator::killDevice(int d)
{
    if (!alive_[static_cast<std::size_t>(d)])
        return;
    alive_[static_cast<std::size_t>(d)] = 0;
    ++failover_.devicesFailed;
    if (tracer_)
        tracer_->instant(TraceKind::DeviceKill, 0, sim_.now(), d);
    if (obs_)
        obs_->metrics.counter("failover/device_kills").add();
    // Order matters. (1) Sever the interconnect so no new transfers
    // target the corpse. (2) Take every SM offline and evict resident
    // blocks — aborted batches buffer on the dead runner's recovery
    // manager, whose redirect now reroutes them. (3) Re-home pinned
    // stages onto survivors BEFORE evacuating queues, so evacuated
    // items land in queues that are already local at their new home.
    icx_.failDevice(d);
    group_.device(d).failDevice();

    int n = size();
    std::vector<std::int64_t> loads(static_cast<std::size_t>(n), 0);
    for (int j = 0; j < n; ++j) {
        if (!alive_[static_cast<std::size_t>(j)])
            continue;
        for (int s = 0; s < pipe_.stageCount(); ++s)
            loads[static_cast<std::size_t>(j)] +=
                static_cast<std::int64_t>(
                    runners_[static_cast<std::size_t>(j)]->queuedFor(s));
    }
    // Placement is uniform per stage group, so re-homing moves whole
    // groups; stages outside any group (non-Groups tops never shard,
    // but stay defensive) move singly.
    std::vector<std::vector<int>> units;
    std::vector<char> inGroup(static_cast<std::size_t>(pipe_.stageCount()),
                              0);
    for (const StageGroup& grp : cfg_.groups) {
        for (int s : grp.stages)
            inGroup[static_cast<std::size_t>(s)] = 1;
        units.push_back(grp.stages);
    }
    for (int s = 0; s < pipe_.stageCount(); ++s)
        if (!inGroup[static_cast<std::size_t>(s)])
            units.push_back({s});
    std::vector<std::vector<int>> adopted(static_cast<std::size_t>(n));
    for (const std::vector<int>& unit : units) {
        if (unit.empty() || curHome(unit.front()) != d)
            continue;
        int nh = FailoverPolicy::rehome(unit.front(), loads, alive_);
        for (int s : unit) {
            homeOverride_[static_cast<std::size_t>(s)] = nh;
            ++failover_.stagesRehomed;
            ++rehomedIn_[static_cast<std::size_t>(nh)];
            runners_[static_cast<std::size_t>(nh)]->takeOverStage(
                s, pipe_.stage(s).queueCapacity);
            adopted[static_cast<std::size_t>(nh)].push_back(s);
            if (tracer_)
                tracer_->instant(TraceKind::StageRehome, 0, sim_.now(), s,
                                 nh);
            if (obs_)
                obs_->metrics.counter("failover/stage_rehomes").add();
        }
    }

    // Capture the corpse's resident queue contents onto each stage's
    // live target.
    RunnerBase& dead = *runners_[static_cast<std::size_t>(d)];
    for (int s = 0; s < pipe_.stageCount(); ++s) {
        if (dead.queuedFor(s) == 0)
            continue;
        int t = liveTarget(s);
        std::size_t moved = dead.evacuateStage(
            s, runners_[static_cast<std::size_t>(t)]->deliveryQueue(
                   s, deliverySeq_++));
        evacuated_[static_cast<std::size_t>(d)] += moved;
        failover_.itemsEvacuated += moved;
    }
    // Launch kernels for adopted stage groups last, so their first
    // dispatch sees the evacuated work.
    for (int j = 0; j < n; ++j)
        if (!adopted[static_cast<std::size_t>(j)].empty())
            runners_[static_cast<std::size_t>(j)]->adoptStages(
                adopted[static_cast<std::size_t>(j)]);
}

void
GroupCoordinator::linkEvent(const LinkFaultEvent& e)
{
    if (e.kind == LinkFaultEvent::Kind::Fail) {
        if (!icx_.pathUsable(e.src, e.dst))
            return;
        icx_.failLink(e.src, e.dst);
        ++failover_.linksFailed;
        if (tracer_)
            tracer_->instant(TraceKind::LinkFail, 0, sim_.now(), e.src,
                             e.dst);
        if (obs_)
            obs_->metrics.counter("failover/link_fails").add();
    } else {
        icx_.degradeLink(e.src, e.dst, e.factor);
        ++failover_.linksDegraded;
        if (tracer_)
            tracer_->instant(TraceKind::LinkDegrade, 0, sim_.now(), e.src,
                             e.dst);
        if (obs_)
            obs_->metrics.counter("failover/link_degrades").add();
    }
}

std::uint64_t
GroupCoordinator::progress() const
{
    std::uint64_t p = icx_.stats().delivered;
    for (const auto& r : runners_)
        p += r->drainProgress();
    return p;
}

std::string
GroupCoordinator::diagnose() const
{
    if (!sharded_)
        return runners_[0]->diagnoseStall();
    std::ostringstream os;
    os << "interconnect: inFlight=" << icx_.inFlight() << "\n";
    for (std::size_t i = 0; i < runners_.size(); ++i)
        os << "device " << i << ":\n" << runners_[i]->diagnoseStall();
    return os.str();
}

void
GroupCoordinator::adaptEpoch()
{
    for (auto& r : runners_)
        r->adaptEpoch();
}

void
GroupCoordinator::serveWake()
{
    for (auto& r : runners_)
        r->serveWake();
}

RunResult
GroupCoordinator::collect()
{
    RunResult merged = runners_[0]->collect();
    if (!sharded_)
        return merged;
    const DeviceGroupConfig& gcfg = group_.config();
    double issue = 0.0;
    for (int i = 0; i < size(); ++i) {
        auto di = static_cast<std::size_t>(i);
        RunResult ri = i == 0 ? merged : runners_[di]->collect();
        if (i > 0) {
            for (std::size_t s = 0; s < merged.stages.size(); ++s)
                merged.stages[s] += ri.stages[s];
            merged.polls += ri.polls;
            merged.retreats += ri.retreats;
            merged.refills += ri.refills;
            merged.faults += ri.faults;
            merged.extra.merge(ri.extra);
        }
        ShardDeviceStats sd;
        sd.deviceName = gcfg.devices[di].name;
        sd.device = ri.device;
        sd.host = ri.host;
        sd.smUtilization = ri.smUtilization;
        sd.failed = !alive_[di];
        sd.itemsEvacuated = evacuated_[di];
        sd.stagesRehomedIn = rehomedIn_[di];
        merged.shardDevices.push_back(std::move(sd));
        for (int s = 0; s < group_.device(i).numSms(); ++s)
            issue += group_.device(i).sm(s).stats().issueCycles;
    }

    merged.cycles = sim_.now();
    merged.ms = gcfg.devices[0].cyclesToMs(merged.cycles);
    merged.simEvents = sim_.eventsRun();
    merged.dispatchedEvents = sim_.dispatched();
    merged.deviceName = gcfg.describe();
    merged.configName =
        cfg_.describe(pipe_) + " shard=" + plan_.describe();
    merged.interconnect = icx_.stats();
    // Runners keep no failover counters: the group's are the run's.
    merged.faults += failover_;
    for (std::size_t s = 0; s < merged.stages.size(); ++s)
        merged.stages[s].deadLettered += linkDeadLettered_[s];
    if (merged.cycles > 0.0 && group_.totalSms() > 0)
        merged.smUtilization =
            issue / (merged.cycles * group_.totalSms());
    return merged;
}

std::optional<RunResult>
Engine::runGroup(AppDriver& driver, const PipelineConfig& config,
                 const ShardPlan* shardPlan, double cycleLimit,
                 TaskGraph* capture, const TaskGraph* replay) const
{
    DeviceGroupConfig one;
    if (!shardPlan)
        one.devices.push_back(cfg_);
    const DeviceGroupConfig& gcfg = shardPlan ? *group_ : one;
    int n = gcfg.size();

    Pipeline& pipe = driver.pipeline();
    pipe.validate();
    for (const DeviceConfig& dcfg : gcfg.devices)
        config.validate(pipe, dcfg);
    ShardPlan replicate;
    if (shardPlan)
        shardPlan->validate(pipe, config, n);
    else
        replicate = ShardPlan::replicateAll(pipe);
    const ShardPlan& plan = shardPlan ? *shardPlan : replicate;
    if (capture || replay)
        requireTaskGraph(driver, capture, replay);
    driver.reset();
    pipe.resetStages();

    Simulator sim;
    DeviceGroup group(sim, gcfg);
    Interconnect& icx = group.interconnect();

    // Under VP_LOG=trace, log records carry this run's clock until
    // the Supervisor unwinds, on every return path.
    Supervisor supervisor(sim);

    // All fault/recovery state lives on this stack frame, keeping
    // runs const and re-entrant: repeated runs under the same plan
    // are bit-reproducible because each builds a fresh seeded
    // injector.
    std::optional<FaultInjector> injector;
    RecoveryConfig rc;
    bool faulted = plan_.has_value() || recovery_.has_value();

    std::shared_ptr<ObsData> obs;
    if (obsCfg_) {
        obs = std::make_shared<ObsData>(*obsCfg_, &sim);
        for (int i = 0; i < n; ++i) {
            group.device(i).setTracer(obs->tracerPtr());
            // Streams get 64 tracks per device — far beyond any
            // realistic per-device stream count.
            group.device(i).setTraceTrackBase(group.smTrackBase(i),
                                              i * 64);
        }
    }
    Tracer* tracer = obs ? obs->tracerPtr() : nullptr;
    if (tracer) {
        icx.setTraceHook([tracer](int src, int dst, double bytes,
                                  Tick submit, Tick arrival) {
            tracer->span(TraceKind::Transfer,
                         static_cast<std::int16_t>(dst), submit,
                         arrival - submit, src,
                         static_cast<std::int32_t>(bytes));
        });
    }

    if (plan_) {
        plan_->validate();
        // Eager target validation: scripted events aimed at devices,
        // SMs, stages or links this group does not have are rejected
        // up front instead of silently never firing.
        std::vector<int> smsPerDevice;
        for (const DeviceConfig& dcfg : gcfg.devices)
            smsPerDevice.push_back(dcfg.numSms);
        plan_->validateTargets(smsPerDevice, pipe.stageCount());
        VP_CHECK(shardPlan
                     || (!plan_->anyDeviceFaults()
                         && !plan_->anyLinkFaults()),
                 ErrorCode::Config,
                 "fault plan scripts device/link failures but this "
                 "is a single-device run");
        injector.emplace(*plan_);
        for (int i = 0; i < n; ++i)
            group.device(i).setFaultInjector(&*injector);
    }
    if (recovery_) {
        recovery_->validate();
        rc = *recovery_;
    }

    RunnerContext rctx;
    if (injector)
        rctx.injector = &*injector;
    if (recovery_)
        rctx.recovery = &*recovery_;
    rctx.obs = obs.get();
    rctx.capture = capture;
    rctx.replay = replay;
    GroupCoordinator coord(sim, group, pipe, config, plan,
                           shardPlan != nullptr, rctx);
    if (plan_)
        coord.scheduleFaults(*plan_);
    if (obs && obs->sampler.enabled())
        coord.registerProbes(obs->sampler);

    // Per-device controllers: each armed runner rebalances its own
    // locally homed fine group; epochs fire group-wide in device
    // order at the same slice boundaries.
    bool adaptOn = false;
    if (adaptiveCfg_ && adaptiveCfg_->enabled) {
        adaptiveCfg_->validate();
        adaptOn = coord.armAdaptive(*adaptiveCfg_);
    }
    coord.start(driver);

    SupervisedRun sr;
    sr.driver = &driver;
    sr.config = &config;
    sr.cycleLimit = cycleLimit;
    sr.eventLimit = eventLimit_;
    sr.replayed = replay != nullptr;
    sr.recovery = faulted ? &rc : nullptr;
    sr.obs = obs;
    sr.adaptive = adaptOn ? &*adaptiveCfg_ : nullptr;
    sr.group = &coord;

    // Serving mode (core/serve_hook.hh): the Supervisor seeds
    // admitted requests at epoch boundaries through one run-lifetime
    // seeder of the coordinator.
    if (serve_) {
        VP_CHECK(config.top == PipelineConfig::Top::Groups,
                 ErrorCode::Config,
                 "serving requires a Groups configuration");
        VP_CHECK(obs && obs->provenancePtr(), ErrorCode::Config,
                 "serving requires an armed provenance tracker "
                 "(ServingEngine arms it; request roots are "
                 "force-tracked regardless of the sampling stride)");
        VP_CHECK(!plan_
                     || (plan_->smEvents.empty()
                         && !plan_->anyDeviceFaults()
                         && !plan_->anyLinkFaults()),
                 ErrorCode::Config,
                 "serving cannot combine with scripted fault events "
                 "(their drain-cancellation trigger assumes the "
                 "one-shot drain)");
        // Requests may re-seed a flow, so its joins' keys repeat.
        coord.joins().dropLateArrivals();
        sr.serve = serve_;
    }
    return supervisor.run(sr);
}

} // namespace vp
