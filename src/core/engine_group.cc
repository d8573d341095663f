/**
 * @file
 * The one run set-up behind every Engine entry point: a run executes
 * one pipeline over the devices of a DeviceGroup under a ShardPlan.
 * A plain run is the one-device group of the engine's first device
 * under a replicate-all plan.
 *
 * Each device gets its own runner over the shared simulator; the
 * group coordinator routes seed items to their devices, forwards
 * cross-device pushes through the interconnect, and answers the
 * remote-work queries behind block-exit decisions. One shared
 * PendingCounter covers queued, in-flight and in-transit work, so
 * group-wide termination detection needs no extra protocol: the run
 * drains exactly when the counter does.
 */

#include "core/engine.hh"

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/supervisor.hh"
#include "gpu/device_group.hh"

namespace vp {

Engine::Engine(DeviceGroupConfig group)
    : cfg_(group.devices.empty() ? DeviceConfig{} : group.devices[0])
{
    group.validate();
    group_ = std::move(group);
}

/**
 * Friend of Seeder: builds the routed seeders of every Groups run.
 * Pinned stages seed straight to their home device; replicated
 * stages hash each item over the group (shardSeedDevice), which is
 * the only point where replicated work is distributed — intermediate
 * outputs stay on the producing device for locality.
 */
class GroupCoordinator
{
  public:
    /**
     * A seeder that routes each item by (stage, ordinal) and counts
     * it on the group's @p pending counter. The ordinal rolls for as
     * long as the seeder lives.
     */
    static Seeder
    routedSeeder(Pipeline& pipe,
                 std::vector<std::unique_ptr<RunnerBase>>& runners,
                 const ShardPlan& plan, PendingCounter& pending,
                 ProvenanceTracker* prov)
    {
        int n = static_cast<int>(runners.size());
        Seeder seeder;
        seeder.pipe_ = &pipe;
        seeder.prov_ = prov;
        seeder.pending_ = &pending;
        seeder.route_ = [&runners, &plan,
                         n](int stage, int ordinal) -> QueueBase& {
            int home = plan.homeDevice(stage);
            int dev = home >= 0 ? home
                                : shardSeedDevice(stage, ordinal, n);
            return runners[static_cast<std::size_t>(dev)]
                ->deliveryQueue(stage,
                                static_cast<std::uint64_t>(ordinal));
        };
        return seeder;
    }
};

namespace {

/** Fold runner @p ri's collected stats into @p merged. */
void
mergeRunnerResult(RunResult& merged, const RunResult& ri)
{
    for (std::size_t s = 0; s < merged.stages.size(); ++s) {
        StageRunStats& a = merged.stages[s];
        const StageRunStats& b = ri.stages[s];
        a.items += b.items;
        a.batches += b.batches;
        a.warpInsts += b.warpInsts;
        a.execCycles += b.execCycles;
        a.retried += b.retried;
        a.deadLettered += b.deadLettered;
        a.queue.pushes += b.queue.pushes;
        a.queue.pops += b.queue.pops;
        a.queue.maxDepth = std::max(a.queue.maxDepth,
                                    b.queue.maxDepth);
        a.queue.opCycles += b.queue.opCycles;
        a.queue.contentionCycles += b.queue.contentionCycles;
    }
    merged.polls += ri.polls;
    merged.retreats += ri.retreats;
    merged.refills += ri.refills;

    merged.faults.taskFaults += ri.faults.taskFaults;
    merged.faults.tasksRetried += ri.faults.tasksRetried;
    merged.faults.deadLettered += ri.faults.deadLettered;
    merged.faults.droppedPushes += ri.faults.droppedPushes;
    merged.faults.corruptedPushes += ri.faults.corruptedPushes;
    merged.faults.slowdowns += ri.faults.slowdowns;
    merged.faults.backpressureWaits += ri.faults.backpressureWaits;
    merged.faults.degradeRelaunches += ri.faults.degradeRelaunches;
    merged.faults.launchDelays += ri.faults.launchDelays;
    merged.faults.smsFailed += ri.faults.smsFailed;
    merged.faults.smsDegraded += ri.faults.smsDegraded;
    merged.faults.blocksEvicted += ri.faults.blocksEvicted;
}

/**
 * Coordinator-side failover bookkeeping of one sharded run. Armed
 * only when the fault plan scripts device or link events; when
 * disarmed every consulting site takes its pre-failover path, so
 * runs without such plans stay event-for-event identical.
 */
struct FailoverState
{
    bool armed = false;
    /** Per device: still accepting work. */
    std::vector<char> alive;
    /** Per stage: re-homed device, or -1 for the plan's home. */
    std::vector<int> homeOverride;
    /** Per device: items drained off it when it died. */
    std::vector<std::uint64_t> evacuated;
    /** Per device: stages this survivor adopted. */
    std::vector<int> rehomedIn;
    /** Per stage: items dead-lettered at failed-link push sites. */
    std::vector<std::uint64_t> linkDeadLettered;
    int devicesFailed = 0;
    int linksFailed = 0;
    int linksDegraded = 0;
    int stagesRehomed = 0;
    std::uint64_t transfersRedelivered = 0;

    int
    curHome(int stage, const ShardPlan& plan) const
    {
        int o = homeOverride[static_cast<std::size_t>(stage)];
        return o >= 0 ? o : plan.homeDevice(stage);
    }

    /**
     * Live landing device for @p stage: the (possibly re-homed)
     * pinned home, or for replicated stages the lowest-index
     * survivor. Pinned homes are always live outside the kill
     * handler itself — death immediately re-homes them.
     */
    int
    liveTarget(int stage, const ShardPlan& plan) const
    {
        int home = curHome(stage, plan);
        if (home >= 0)
            return home;
        for (std::size_t d = 0; d < alive.size(); ++d)
            if (alive[d])
                return static_cast<int>(d);
        return 0;
    }
};

} // namespace

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
    if (capture)
        requireTaskGraph(driver, *capture);
    if (replay)
        requireTaskGraph(driver, *replay);
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
    ProvenanceTracker* prov = obs ? obs->provenancePtr() : nullptr;
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

    // Group-wide termination: one counter spans queued items,
    // in-flight batches and in-transit transfers on every device
    // (producers commit outputs with add() before sub()bing their
    // inputs, so the counter never dips to zero while work exists).
    PendingCounter pending;
    JoinCounters joins;

    // Contexts must outlive the runners that point at them; the
    // callback members are filled in after the runners exist.
    std::vector<ShardContext> shardCtxs(static_cast<std::size_t>(n));
    std::vector<std::unique_ptr<RunnerBase>> runners;
    for (int i = 0; i < n; ++i) {
        ShardContext& sc = shardCtxs[static_cast<std::size_t>(i)];
        sc.deviceIndex = i;
        sc.numDevices = n;
        sc.smTrackBase = group.smTrackBase(i);
        sc.plan = &plan;
        sc.sharedPending = &pending;
        sc.sharedJoins = &joins;

        FaultContext fc;
        fc.shard = &sc;
        if (injector)
            fc.injector = &*injector;
        if (recovery_)
            fc.recovery = &*recovery_;
        if (obs)
            fc.obs = obs.get();
        fc.capture = capture;
        fc.replay = replay;
        runners.push_back(makeRunner(sim, group.device(i),
                                     group.host(i), pipe, config,
                                     fc));
    }

    // Cross-device forwarding: a push into a remote stub on device i
    // rides the interconnect to the stage's home device and lands in
    // that runner's delivery queue at arrival time. The rolling
    // sequence spreads deliveries over queue shards deterministically.
    //
    // Bounded stages keep backpressure across devices via a credit
    // scheme: per-stage counters charge every in-flight transfer
    // against the home queue's capacity, and the remote stubs'
    // full() consults them (remoteFull below). Without the in-flight
    // term a burst of transfers could overshoot the bound arbitrarily
    // between submission and delivery.
    auto deliverySeq =
        std::make_shared<std::uint64_t>(0);
    auto inTransit = std::make_shared<std::vector<std::int64_t>>(
        static_cast<std::size_t>(pipe.stageCount()), 0);

    // Failover state: armed only for plans with device/link events.
    // Every fo-consulting branch below is behind fo->armed, so runs
    // without such plans take exactly the pre-failover event path.
    auto fo = std::make_shared<FailoverState>();
    bool failoverOn = plan_
        && (plan_->anyDeviceFaults() || plan_->anyLinkFaults());
    if (failoverOn) {
        fo->armed = true;
        fo->alive.assign(static_cast<std::size_t>(n), 1);
        fo->homeOverride.assign(
            static_cast<std::size_t>(pipe.stageCount()), -1);
        fo->evacuated.assign(static_cast<std::size_t>(n), 0);
        fo->rehomedIn.assign(static_cast<std::size_t>(n), 0);
        fo->linkDeadLettered.assign(
            static_cast<std::size_t>(pipe.stageCount()), 0);
    }

    // Only a group of two or more installs these: a one-device run
    // has no peer, so its idle polls skip the remote-work check.
    for (int i = 0; n > 1 && i < n; ++i) {
        ShardContext& sc = shardCtxs[static_cast<std::size_t>(i)];
        sc.forward = [&icx, &runners, &plan, &pending, &sim, i,
                      deliverySeq, inTransit, fo, tracer,
                      prov](int stage, int bytes, std::uint64_t provId,
                            std::function<void(QueueBase&)>
                                deliver) {
            int home = fo->armed ? fo->curHome(stage, plan)
                                 : plan.homeDevice(stage);
            VP_ASSERT(home >= 0, "remote forward of an unpinned stage");
            if (fo->armed && !icx.pathUsable(i, home)) {
                // Both endpoints alive but the link between them
                // failed: the item is lost in a structured way.
                // Ledger it (conservation) and release its pending
                // unit so the group can still drain.
                ++fo->linkDeadLettered[
                    static_cast<std::size_t>(stage)];
                pending.sub(1);
                if (prov && provId)
                    prov->noteDeadLetter(provId, sim.now());
                if (tracer)
                    tracer->instant(TraceKind::DeadLetter, 0,
                                    sim.now(), stage, 1);
                return;
            }
            if (prov && provId)
                prov->noteForward(provId, stage, i, home, sim.now());
            ++(*inTransit)[static_cast<std::size_t>(stage)];
            icx.transfer(
                i, home, static_cast<double>(bytes),
                [&runners, &plan, &sim, home, stage, deliverySeq,
                 inTransit, fo, tracer,
                 deliver = std::move(deliver)]() mutable {
                    --(*inTransit)[static_cast<std::size_t>(stage)];
                    if (fo->armed
                        && !fo->alive[static_cast<std::size_t>(home)]) {
                        // Destination died while the payload was in
                        // flight: redeliver through the new home's
                        // recovery buffer. The pending unit stays
                        // charged, so termination waits for it.
                        int nh = fo->liveTarget(stage, plan);
                        ++fo->transfersRedelivered;
                        if (tracer)
                            tracer->instant(
                                TraceKind::TransferRedeliver, 0,
                                sim.now(), stage, nh);
                        runners[static_cast<std::size_t>(nh)]
                            ->redeliverForeign(stage,
                                               (*deliverySeq)++,
                                               std::move(deliver));
                        return;
                    }
                    deliver(
                        runners[static_cast<std::size_t>(home)]
                            ->deliveryQueue(stage, (*deliverySeq)++));
                });
        };
        sc.remoteFull = [&icx, &runners, &plan, &pipe, i, inTransit,
                         fo](int stage) -> bool {
            std::size_t cap = pipe.stage(stage).queueCapacity;
            if (cap == 0)
                return false;
            int home = fo->armed ? fo->curHome(stage, plan)
                                 : plan.homeDevice(stage);
            if (home < 0)
                return false;
            // Pushes onto a failed path dead-letter immediately, so
            // they must never backpressure-wait on home credit.
            if (fo->armed && !icx.pathUsable(i, home))
                return false;
            std::size_t charged =
                runners[static_cast<std::size_t>(home)]->queuedFor(
                    stage)
                + static_cast<std::size_t>(
                    (*inTransit)[static_cast<std::size_t>(stage)]);
            return charged >= cap;
        };
        sc.remoteWork = [&icx, &runners, i,
                         n](StageMask relevant) -> bool {
            if (icx.inFlight() > 0)
                return true;
            for (int j = 0; j < n; ++j)
                if (j != i
                    && runners[static_cast<std::size_t>(j)]->localWork(
                        relevant))
                    return true;
            return false;
        };
    }

    // In-flight redeliveries buffered on a dead device's runner are
    // rerouted at fire time: once a device is marked dead, anything
    // its recovery manager still holds lands on the stage's live
    // target instead.
    if (failoverOn) {
        for (int i = 0; i < n; ++i) {
            runners[static_cast<std::size_t>(i)]->setRecoveryRedirect(
                [&runners, &plan, fo, deliverySeq,
                 i](int stage) -> QueueBase* {
                    if (fo->alive[static_cast<std::size_t>(i)])
                        return nullptr;
                    int nh = fo->liveTarget(stage, plan);
                    return &runners[static_cast<std::size_t>(nh)]
                                ->deliveryQueue(stage,
                                                (*deliverySeq)++);
                });
        }
    }

    // Scripted SM/device/link faults, per target device; range
    // checks already ran in validateTargets above. Outstanding
    // events are cancelled when the group drains.
    if (plan_
        && (!plan_->smEvents.empty() || failoverOn)) {
        auto handles = std::make_shared<std::vector<EventHandle>>();
        for (const SmFaultEvent& e : plan_->smEvents) {
            Device& dev = group.device(e.device);
            handles->push_back(sim.at(e.time, [&dev, e] {
                if (dev.sm(e.sm).offline())
                    return;
                if (e.kind == SmFaultEvent::Kind::Kill)
                    dev.failSm(e.sm);
                else
                    dev.degradeSm(e.sm, e.factor);
            }));
        }
        for (const DeviceFaultEvent& e : plan_->deviceEvents) {
            handles->push_back(sim.at(e.time, [&, fo, deliverySeq] {
                int d = e.device;
                if (!fo->alive[static_cast<std::size_t>(d)])
                    return;
                fo->alive[static_cast<std::size_t>(d)] = 0;
                ++fo->devicesFailed;
                if (tracer)
                    tracer->instant(TraceKind::DeviceKill, 0,
                                    sim.now(), d);
                if (obs)
                    obs->metrics.counter("failover/device_kills")
                        .add();
                // Order matters. (1) Sever the interconnect so no
                // new transfers target the corpse. (2) Take every SM
                // offline and evict resident blocks — aborted
                // batches buffer on the dead runner's recovery
                // manager, whose redirect now reroutes them. (3)
                // Re-home pinned stages onto survivors BEFORE
                // evacuating queues, so evacuated items land in
                // queues that are already local at their new home.
                icx.failDevice(d);
                group.device(d).failDevice();

                std::vector<std::int64_t> loads(
                    static_cast<std::size_t>(n), 0);
                for (int j = 0; j < n; ++j) {
                    if (!fo->alive[static_cast<std::size_t>(j)])
                        continue;
                    for (int s = 0; s < pipe.stageCount(); ++s)
                        loads[static_cast<std::size_t>(j)] +=
                            static_cast<std::int64_t>(
                                runners[static_cast<std::size_t>(j)]
                                    ->queuedFor(s));
                }
                std::vector<std::vector<int>> adopted(
                    static_cast<std::size_t>(n));
                auto rehomeUnit = [&](const std::vector<int>& stages) {
                    if (stages.empty()
                        || fo->curHome(stages.front(), plan) != d)
                        return;
                    int nh = FailoverPolicy::rehome(stages.front(),
                                                    loads, fo->alive);
                    for (int s : stages) {
                        fo->homeOverride[
                            static_cast<std::size_t>(s)] = nh;
                        ++fo->stagesRehomed;
                        ++fo->rehomedIn[static_cast<std::size_t>(nh)];
                        runners[static_cast<std::size_t>(nh)]
                            ->takeOverStage(
                                s, pipe.stage(s).queueCapacity);
                        adopted[static_cast<std::size_t>(nh)]
                            .push_back(s);
                        if (tracer)
                            tracer->instant(TraceKind::StageRehome, 0,
                                            sim.now(), s, nh);
                        if (obs)
                            obs->metrics
                                .counter("failover/stage_rehomes")
                                .add();
                    }
                };
                // Placement is uniform per stage group, so re-homing
                // moves whole groups; stages outside any group (non-
                // Groups tops never shard, but stay defensive) move
                // singly.
                std::vector<char> inGroup(
                    static_cast<std::size_t>(pipe.stageCount()), 0);
                for (const StageGroup& grp : config.groups) {
                    for (int s : grp.stages)
                        inGroup[static_cast<std::size_t>(s)] = 1;
                    rehomeUnit(grp.stages);
                }
                for (int s = 0; s < pipe.stageCount(); ++s)
                    if (!inGroup[static_cast<std::size_t>(s)])
                        rehomeUnit({s});

                // Capture the corpse's resident queue contents onto
                // each stage's live target.
                for (int s = 0; s < pipe.stageCount(); ++s) {
                    RunnerBase& dead =
                        *runners[static_cast<std::size_t>(d)];
                    if (dead.queuedFor(s) == 0)
                        continue;
                    int t = fo->liveTarget(s, plan);
                    std::size_t moved = dead.evacuateStage(
                        s,
                        runners[static_cast<std::size_t>(t)]
                            ->deliveryQueue(s, (*deliverySeq)++));
                    fo->evacuated[static_cast<std::size_t>(d)] +=
                        moved;
                }
                // Launch kernels for adopted stage groups last, so
                // their first dispatch sees the evacuated work.
                for (int j = 0; j < n; ++j)
                    if (!adopted[static_cast<std::size_t>(j)].empty())
                        runners[static_cast<std::size_t>(j)]
                            ->adoptStages(
                                adopted[static_cast<std::size_t>(j)]);
            }));
        }
        for (const LinkFaultEvent& e : plan_->linkEvents) {
            handles->push_back(sim.at(e.time, [&, fo, e] {
                if (e.kind == LinkFaultEvent::Kind::Fail) {
                    if (!icx.pathUsable(e.src, e.dst))
                        return;
                    icx.failLink(e.src, e.dst);
                    ++fo->linksFailed;
                    if (tracer)
                        tracer->instant(TraceKind::LinkFail, 0,
                                        sim.now(), e.src, e.dst);
                    if (obs)
                        obs->metrics.counter("failover/link_fails")
                            .add();
                } else {
                    icx.degradeLink(e.src, e.dst, e.factor);
                    ++fo->linksDegraded;
                    if (tracer)
                        tracer->instant(TraceKind::LinkDegrade, 0,
                                        sim.now(), e.src, e.dst);
                    if (obs)
                        obs->metrics.counter("failover/link_degrades")
                            .add();
                }
            }));
        }
        pending.notifyOnDrain([&sim, handles] {
            for (EventHandle h : *handles)
                sim.cancel(h);
        });
    }

    if (obs && obs->sampler.enabled()) {
        for (auto& r : runners)
            r->registerProbes(obs->sampler);
        if (shardPlan)
            obs->sampler.addSeries("interconnect_in_flight", [&icx] {
                return static_cast<double>(icx.inFlight());
            });
    }

    // Per-device controllers: each armed runner rebalances its own
    // locally homed fine group; epochs fire group-wide in device
    // order at the same slice boundaries.
    bool adaptOn = false;
    if (adaptiveCfg_ && adaptiveCfg_->enabled) {
        adaptiveCfg_->validate();
        for (auto& r : runners)
            if (r->armAdaptive(*adaptiveCfg_))
                adaptOn = true;
    }

    // The coordinator seeds every Groups run, item by item. KBK and
    // DP never shard: their host sequencing seeds its own flows.
    if (config.top == PipelineConfig::Top::Groups) {
        for (int f = 0; f < driver.flowCount(); ++f) {
            Seeder seeder = GroupCoordinator::routedSeeder(
                pipe, runners, plan, pending, prov);
            driver.seedFlow(seeder, f);
        }
    }
    for (auto& r : runners)
        r->start(driver);

    SupervisedRun sr;
    sr.driver = &driver;
    sr.config = &config;
    sr.cycleLimit = cycleLimit;
    sr.eventLimit = eventLimit_;
    sr.replayed = replay != nullptr;
    sr.recovery = faulted ? &rc : nullptr;
    sr.obs = obs;
    sr.adaptive = adaptOn ? &*adaptiveCfg_ : nullptr;
    sr.collect = [&] {
        RunResult merged = runners[0]->collect();
        if (!shardPlan)
            return merged;
        std::vector<RunResult> per;
        per.push_back(merged);
        for (int i = 1; i < n; ++i) {
            per.push_back(runners[static_cast<std::size_t>(i)]
                              ->collect());
            mergeRunnerResult(merged, per.back());
        }
        double steals = 0.0;
        double adEpochs = 0.0;
        double adMoves = 0.0;
        for (const RunResult& ri : per) {
            steals += ri.extra.get("steals");
            adEpochs += ri.extra.get("adaptiveEpochs");
            adMoves += ri.extra.get("adaptiveMoves");
        }
        merged.extra.set("steals", steals);
        if (adaptOn) {
            merged.extra.set("adaptiveEpochs", adEpochs);
            merged.extra.set("adaptiveMoves", adMoves);
        }

        merged.cycles = sim.now();
        merged.ms = gcfg.devices[0].cyclesToMs(merged.cycles);
        merged.simEvents = sim.eventsRun();
        merged.dispatchedEvents = sim.dispatched();
        merged.deviceName = gcfg.describe();
        merged.configName = config.describe(pipe) + " shard="
            + plan.describe();
        merged.interconnect = icx.stats();

        double issue = 0.0;
        for (int i = 0; i < n; ++i) {
            ShardDeviceStats sd;
            sd.deviceName = gcfg.devices[static_cast<std::size_t>(i)]
                                .name;
            sd.device = per[static_cast<std::size_t>(i)].device;
            sd.host = per[static_cast<std::size_t>(i)].host;
            sd.smUtilization =
                per[static_cast<std::size_t>(i)].smUtilization;
            if (fo->armed) {
                sd.failed = !fo->alive[static_cast<std::size_t>(i)];
                sd.itemsEvacuated =
                    fo->evacuated[static_cast<std::size_t>(i)];
                sd.stagesRehomedIn =
                    fo->rehomedIn[static_cast<std::size_t>(i)];
            }
            merged.shardDevices.push_back(std::move(sd));
            for (int s = 0; s < group.device(i).numSms(); ++s)
                issue += group.device(i).sm(s).stats().issueCycles;
        }
        if (fo->armed) {
            merged.faults.devicesFailed = fo->devicesFailed;
            merged.faults.linksFailed = fo->linksFailed;
            merged.faults.linksDegraded = fo->linksDegraded;
            merged.faults.stagesRehomed = fo->stagesRehomed;
            merged.faults.transfersRedelivered =
                fo->transfersRedelivered;
            for (int i = 0; i < n; ++i)
                merged.faults.itemsEvacuated +=
                    fo->evacuated[static_cast<std::size_t>(i)];
            for (int s = 0; s < pipe.stageCount(); ++s) {
                std::uint64_t dl =
                    fo->linkDeadLettered[static_cast<std::size_t>(s)];
                merged.stages[static_cast<std::size_t>(s)]
                    .deadLettered += dl;
                merged.faults.deadLettered += dl;
            }
        }
        if (merged.cycles > 0.0 && group.totalSms() > 0)
            merged.smUtilization =
                issue / (merged.cycles * group.totalSms());
        return merged;
    };

    sr.pending = &pending;
    sr.progress = [&runners, &icx] {
        std::uint64_t p = icx.stats().delivered;
        for (const auto& r : runners)
            p += r->drainProgress();
        return p;
    };
    sr.diagnose = [&runners, &icx, shardPlan] {
        if (!shardPlan)
            return runners[0]->diagnoseStall();
        std::ostringstream os;
        os << "interconnect: inFlight=" << icx.inFlight() << "\n";
        for (std::size_t i = 0; i < runners.size(); ++i)
            os << "device " << i << ":\n"
               << runners[i]->diagnoseStall();
        return os.str();
    };
    sr.adaptEpoch = [&runners] {
        for (auto& r : runners)
            r->adaptEpoch();
    };

    // Serving mode (core/serve_hook.hh): the session seeds admitted
    // requests at epoch boundaries through one run-lifetime routed
    // seeder — the same (stage, ordinal) placement as the initial
    // seeding, with the ordinal rolling across epochs so serving
    // placement is a pure function of the admission order.
    Seeder serveSeeder;
    if (serve_) {
        VP_CHECK(config.top == PipelineConfig::Top::Groups,
                 ErrorCode::Config,
                 "serving requires a Groups configuration");
        VP_CHECK(obs && prov, ErrorCode::Config,
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
        joins.dropLateArrivals();
        serveSeeder = GroupCoordinator::routedSeeder(pipe, runners, plan,
                                                     pending, prov);
        sr.serve = serve_;
        sr.serveSeeder = &serveSeeder;
        sr.serveWake = [&runners] {
            for (auto& r : runners)
                r->serveWake();
        };
    }
    return supervisor.run(sr);
}

} // namespace vp
