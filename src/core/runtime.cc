#include "core/runtime.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/logging.hh"
#include "core/stage_impl.hh"
#include "gpu/occupancy.hh"
#include "sim/fault.hh"

namespace vp {

RunnerBase::RunnerBase(Simulator& sim, Device& dev, Host& host,
                       Pipeline& pipe, const PipelineConfig& cfg,
                       RunnerContext rc)
    : sim_(sim), dev_(dev), host_(host), pipe_(pipe), cfg_(cfg),
      group_(rc.group), device_(rc.device)
{
    // Group wiring must precede makeQueueSets: remote-stub
    // installation depends on the plan, and seeding/commits go
    // through the shared counter.
    VP_ASSERT(group_, "a runner needs its run's device group");
    trackBase_ = group_->smTrackBase(device_);
    pendingPtr_ = &group_->pending();
    joinsPtr_ = &group_->joins();

    injector_ = rc.injector;
    if (rc.recovery)
        recoveryCfg_ = *rc.recovery;
    recovery_.init(&sim_, &recoveryCfg_, pipe_.stageCount(), group_,
                   device_);

    obs_ = rc.obs;
    if (obs_) {
        tracer_ = obs_->tracerPtr();
        recovery_.setTracer(tracer_);
        obs_->stageNames.clear();
        obs_->stageBatchCycles.clear();
        for (int s = 0; s < pipe.stageCount(); ++s) {
            obs_->stageNames.push_back(pipe.stage(s).name);
            // Batch latencies start around tens of cycles; a 1.25
            // growth gives ~12% bucket resolution across the range.
            obs_->stageBatchCycles.emplace_back(16.0, 1.25);
        }
        prov_ = obs_->provenancePtr();
        if (prov_)
            prov_->bindStageNames(obs_->stageNames);
    }

    if (injector_) {
        const FaultPlan& plan = injector_->plan();
        // Device kills evict blocks exactly like SM kills.
        evictable_ = !plan.smEvents.empty() || !plan.deviceEvents.empty();
    }
    graphCapture_ = rc.capture;
    graphReplay_ = rc.replay;
    dev_.setBlockAbortHook(
        [this](BlockContext& ctx) { blockAborted(ctx); });
    dev_.setSmFailedHook([this](int sm) { onSmFailed(sm); });

    inFlight_.assign(pipe_.stageCount(), 0);
    stageStats_.resize(pipe_.stageCount());
    stageKernels_.resize(pipe_.stageCount());
    for (int s = 0; s < pipe_.stageCount(); ++s)
        stageStats_[s].name = pipe_.stage(s).name;
    configName_ = cfg.describe(pipe);
}

void
RunnerBase::makeQueueSets(int n)
{
    VP_ASSERT(queueSets_.empty() && n >= 1,
              "a runner builds its queue sets once, at least one");
    queueSets_.resize(static_cast<std::size_t>(n));
    // The first set interns the stage names, before any kernel name.
    for (QueueSet& qs : queueSets_) {
        for (int s = 0; s < pipe_.stageCount(); ++s) {
            StageBase& st = pipe_.stage(s);
            if (group_->plan().pinnedElsewhere(s, device_)) {
                // Stage homed on another device: pushes divert across
                // the interconnect. Bounded stages keep backpressure via
                // the coordinator's credit probe — full() consults the
                // home queue's depth plus in-flight transfers, so a
                // remote producer stalls exactly when a local one would.
                RemoteFullProbe probe;
                if (st.queueCapacity > 0)
                    probe = [this, s] {
                        return group_->remoteFull(device_, s);
                    };
                qs.push_back(st.makeRemoteStub(
                    [this, s](int bytes, std::uint64_t provId,
                              const void* tag,
                              std::function<void(QueueBase&)> deliver) {
                        group_->forward(device_, s, bytes, provId, tag,
                                        std::move(deliver));
                    },
                    std::move(probe)));
            } else {
                qs.push_back(st.makeQueue());
                if (st.queueCapacity > 0)
                    qs.back()->setCapacity(st.queueCapacity);
            }
            if (injector_ && injector_->plan().anyTaskFaults())
                qs.back()->enableRetryMeta();
            if (graphCapture_ || graphReplay_)
                qs.back()->enableTags();
            if (prov_)
                qs.back()->setProvenance(prov_, &sim_, s, device_);
            if (tracer_)
                qs.back()->setTrace(tracer_,
                                    static_cast<std::int16_t>(s),
                                    tracer_->intern(deviceTag()
                                                    + st.name));
        }
    }
}

QueueBase&
RunnerBase::deliveryQueue(int stage, std::uint64_t hint)
{
    return *queueSets_[hint % queueSets_.size()]
                      [static_cast<std::size_t>(stage)];
}

bool
RunnerBase::localWork(StageMask relevant) const
{
    for (StageMask m = relevant; m; m &= m - 1) {
        int i = std::countr_zero(m);
        if (inFlight_[i] > 0 || recovery_.buffered(i) > 0)
            return true;
        for (const QueueSet& qs : queueSets_)
            if (!qs[i]->empty())
                return true;
    }
    return false;
}

StageMask
RunnerBase::watchMask(const std::vector<int>& stages) const
{
    StageMask m = 0;
    for (int s : stages)
        m |= pipe_.ancestorsOf(s) | (StageMask(1) << s);
    return m;
}

bool
RunnerBase::futureWork(StageMask watch) const
{
    if (!watch)
        return false;
    if (localWork(watch))
        return true;
    // In a group: a remote device running an ancestor stage — or an
    // item in flight on the interconnect — may still feed us.
    return group_->remoteWork(device_, watch);
}

std::uint64_t
RunnerBase::drainProgress() const
{
    std::uint64_t h = faultStats_.deadLettered;
    for (const QueueSet& qs : queueSets_)
        for (const auto& q : qs)
            h += q->stats().pushes + q->stats().pops;
    return h;
}

std::size_t
RunnerBase::queuedFor(int s) const
{
    std::size_t total = 0;
    for (const QueueSet& qs : queueSets_)
        total += qs[s]->size();
    return total;
}

void
RunnerBase::takeOverStage(int s, std::size_t capacity)
{
    for (QueueSet& qs : queueSets_) {
        qs[s]->takeOverLocal();
        qs[s]->setCapacity(capacity);
    }
}

std::size_t
RunnerBase::evacuateStage(int s, QueueBase& dst)
{
    std::size_t moved = 0;
    for (QueueSet& qs : queueSets_)
        moved += qs[s]->drainInto(dst);
    return moved;
}

void
RunnerBase::redeliverForeign(int stage, std::uint64_t hint,
                             std::function<void(QueueBase&)> deliver)
{
    recovery_.scheduleRedeliver(stage, &deliveryQueue(stage, hint),
                                std::move(deliver), 1, 1);
}

int
RunnerBase::pickStage(const QueueSet& qs,
                      const std::vector<int>& stages) const
{
    switch (cfg_.schedule) {
      case SchedulePolicy::LaterStageFirst:
        for (auto it = stages.rbegin(); it != stages.rend(); ++it)
            if (!qs[*it]->empty())
                return *it;
        return -1;
      case SchedulePolicy::EarlierStageFirst:
        for (int s : stages)
            if (!qs[s]->empty())
                return s;
        return -1;
      case SchedulePolicy::LongestQueueFirst: {
        int best = -1;
        std::size_t depth = 0;
        for (int s : stages) {
            if (qs[s]->size() > depth) {
                depth = qs[s]->size();
                best = s;
            }
        }
        return best;
      }
    }
    return -1;
}

int
RunnerBase::stageBlockThreads(int s) const
{
    int bt = pipe_.stage(s).blockThreads;
    return bt > 0 ? bt : cfg_.threadsPerBlock;
}

int
RunnerBase::batchCapacity(int s) const
{
    int tn = std::max(1, pipe_.stage(s).threadNum);
    return std::max(1, stageBlockThreads(s) / tn);
}

bool
RunnerBase::producerResidentOn(int s, int sm) const
{
    StageMask producers = pipe_.producersOf(s);
    for (int p = 0; p < pipe_.stageCount(); ++p) {
        if (!(producers & (StageMask(1) << p)))
            continue;
        for (int kid : stageKernels_[p])
            if (dev_.sm(sm).residentBlocksOf(kid) > 0)
                return true;
    }
    return false;
}

void
RunnerBase::bindStageKernel(int s, int kernelId)
{
    stageKernels_[s].push_back(kernelId);
}

void
RunnerBase::processBatch(BlockContext& ctx, QueueSet& qs, int s,
                         StageMask inlineMask, int maxItems,
                         EventFn next, QueueSet* pushInto)
{
    if (Logger::enabled(LogLevel::Trace))
        Logger::setSm(ctx.smId());
    StageBase& st = pipe_.stage(s);
    QueueBase& q = *qs[s];
    const DeviceConfig& dcfg = dev_.config();

    int cap = batchCapacity(s);
    if (maxItems >= 0)
        cap = std::min(cap, maxItems);
    VP_ASSERT(cap > 0, "zero batch capacity");

    ExecContext ectx(pipe_, inlineMask, ctx.smId(),
                     std::max(1, st.threadNum), joinsPtr_);
    if (graphCapture_ || graphReplay_)
        ectx.setTaskGraph(graphCapture_, graphReplay_);
    int avail = static_cast<int>(std::min<std::size_t>(q.size(), cap));
    Tick bstart = sim_.now();
    Tick pop_cost = q.accessCost(dcfg, sim_.now(), std::max(avail, 1));

    // Only a batch that can fault at fetch or be evicted hands the
    // stage a FaultBatch.
    const FaultPlan* plan = injector_ ? &injector_->plan() : nullptr;
    bool taskFaults = plan && plan->anyTaskFaults();
    FaultBatch fb;
    if (taskFaults)
        fb.failItems = injector_->fetchFaults(s, ctx.smId(), avail,
                                              sim_.now());
    fb.maxRetries = recoveryCfg_.maxRetries;
    fb.captureExecuted = evictable_ && st.retryable;
    FaultBatch* fbp = taskFaults || evictable_ ? &fb : nullptr;
    BatchResult br = st.runBatch(ectx, q, cap, fbp);

    int faulted = fb.retried + fb.deadLettered;
    // Provenance ids of the executed items. Copy: the queue's
    // popped-id scratch is overwritten by the next pop.
    std::vector<std::uint64_t> provIds;
    if (prov_) {
        // Every popped item enters service at the pop. Retried items
        // stay in service until redelivery re-queues them (their
        // enqueue closes the hop, backoff included); dead-lettered
        // ones terminate at fault-detection time.
        const std::vector<std::uint64_t>& popped = q.poppedIds();
        for (std::uint64_t id : popped)
            if (id)
                prov_->notePop(id, ctx.smId(),
                               trackBase_ + ctx.smId(), bstart);
        for (std::uint64_t id : fb.deadIds)
            prov_->noteDeadLetter(id, sim_.now());
        provIds.assign(popped.begin()
                           + std::min<std::size_t>(faulted,
                                                   popped.size()),
                       popped.end());
    }

    // Fault detection (parity check, timeout) costs cycles too.
    Tick detect = 0.0;
    if (faulted > 0) {
        auto track = static_cast<std::int16_t>(trackBase_ + ctx.smId());
        faultStats_.taskFaults += faulted;
        if (tracer_)
            tracer_->instant(TraceKind::TaskFault, track, sim_.now(), s,
                             faulted);
        if (fb.deadLettered > 0) {
            stageStats_[s].deadLettered += fb.deadLettered;
            faultStats_.deadLettered += fb.deadLettered;
            pendingPtr_->sub(fb.deadLettered);
            if (tracer_)
                tracer_->instant(TraceKind::DeadLetter, track,
                                 sim_.now(), s, fb.deadLettered);
        }
        if (fb.retried > 0) {
            stageStats_[s].retried += fb.retried;
            faultStats_.tasksRetried += fb.retried;
            if (tracer_)
                tracer_->instant(TraceKind::Retry, track, sim_.now(), s,
                                 fb.retried);
            recovery_.scheduleRedeliver(s, &q, std::move(fb.redeliver),
                                        fb.retried, fb.maxTries);
        }
        detect = plan->faultDetectCycles * faulted;
    }

    stageStats_[s].batches += 1;
    if (br.items == 0) {
        // The whole fetch faulted: charge pop + detection, move on.
        VP_ASSERT(fbp, "processBatch on an empty queue for stage `"
                  << st.name << "`");
        ctx.delay(pop_cost + detect, std::move(next));
        return;
    }

    inFlight_[s] += br.items;
    stageStats_[s].items += br.items;
    for (const auto& [inl, count] : ectx.inlineRuns()) {
        stageStats_[inl].items += count;
        stageStats_[inl].batches += 1;
    }

    // Data-locality bonus: producers co-resident on this SM (fine
    // pipeline / megakernel) or inline chaining (RTC) keep
    // intermediate data in the on-chip caches.
    TaskCost cost = br.total;
    bool chained = (inlineMask & ~(StageMask(1) << s)) != 0;
    if (ctx.smId() >= 0
        && (chained || producerResidentOn(s, ctx.smId()))) {
        cost.l1HitRate = std::min(0.95, cost.l1HitRate
                                  + dcfg.localityBonus);
    }

    WorkSpec w = makeWorkSpec(dcfg, cost, std::max(1, st.threadNum),
                              br.items, br.maxTaskInsts);
    stageStats_[s].warpInsts += w.warpInsts;
    if (plan && plan->taskSlowProb > 0.0) {
        double slow = injector_->slowFactor();
        if (slow > 1.0) {
            w.warpInsts *= slow;
            ++faultStats_.slowdowns;
        }
    }

    if (evictable_) {
        inFlightBatches_[&ctx] = InFlightBatch{
            s, &q, std::move(fb.capture), br.items, provIds};
    }

    BatchCommit c{&ctx, pushInto ? pushInto : &qs, s, br.items, bstart,
                  std::move(ectx.outputs()), std::move(provIds),
                  std::move(next)};
    ctx.delay(pop_cost + detect, [this, w, c = std::move(c)]() mutable {
        Tick exec_start = sim_.now();
        BlockContext* block = c.block;
        block->exec(w, [this, exec_start, c = std::move(c)]() mutable {
            stageStats_[c.stage].execCycles += sim_.now() - exec_start;
            finishBatch(std::move(c));
        });
    });
}

void
RunnerBase::finishBatch(BatchCommit c)
{
    // Each push's cost, grouped by target queue, feeds that queue's
    // contention window and stats; it does not delay the block
    // (docs/MODEL.md, "Queue access"). Stage indices are < 32, so a
    // stack array groups them.
    const DeviceConfig& dcfg = dev_.config();
    int counts[32] = {};
    StageMask touched = 0;
    for (const StagedOutput& o : c.outputs) {
        counts[o.stage] += 1;
        touched |= StageMask(1) << o.stage;
    }
    for (int t = 0; touched; ++t, touched >>= 1)
        if (touched & 1)
            (*c.qs)[t]->accessCost(dcfg, sim_.now(), counts[t]);

    // In-transit push faults, decided in output order. A corrupted
    // item holds the block for its detection.
    Tick detect = 0.0;
    const FaultPlan* plan = injector_ ? &injector_->plan() : nullptr;
    if (plan && plan->anyPushFaults()) {
        int dropped = 0, corrupted = 0;
        auto keep = c.outputs.begin();
        for (auto& o : c.outputs) {
            PushFault f = injector_->pushFault();
            if (f == PushFault::None) {
                *keep++ = std::move(o);
                continue;
            }
            // The output never reaches its queue: record its id as
            // a dropped or dead-lettered child, so lineage
            // conservation still accounts for it.
            std::uint64_t cid = prov_ && o.provParent
                ? prov_->mintChild(o.provParent)
                : 0;
            if (f == PushFault::Drop) {
                ++dropped;
                if (cid)
                    prov_->noteDropped(cid, sim_.now());
            } else {
                ++corrupted;
                stageStats_[o.stage].deadLettered += 1;
                if (cid)
                    prov_->noteDeadLetter(cid, sim_.now());
            }
        }
        c.outputs.erase(keep, c.outputs.end());
        detect = plan->faultDetectCycles * corrupted;
        faultStats_.droppedPushes += dropped;
        faultStats_.corruptedPushes += corrupted;
        faultStats_.deadLettered += corrupted;
    }

    if (detect > 0.0 || !tryCommit(c))
        awaitCommit(std::make_unique<BatchCommit>(std::move(c)), detect);
}

bool
RunnerBase::tryCommit(BatchCommit& c)
{
    // Backpressure: hold the outputs while any bounded target queue
    // is full, probing each target once, in output order.
    StageMask probed = 0;
    for (const StagedOutput& o : c.outputs) {
        StageMask bit = StageMask(1) << o.stage;
        if (probed & bit)
            continue;
        probed |= bit;
        if ((*c.qs)[o.stage]->full()) {
            ++faultStats_.backpressureWaits;
            if (tracer_)
                tracer_->instant(TraceKind::Backpressure,
                                 static_cast<std::int16_t>(
                                     trackBase_ + c.block->smId()),
                                 sim_.now(), o.stage);
            return false;
        }
    }
    pendingPtr_->add(static_cast<std::int64_t>(c.outputs.size()));
    for (StagedOutput& o : c.outputs) {
        // Mint the output's own id only now that the batch is
        // committing: aborted batches leave no orphan lineage records.
        if (prov_ && o.provParent) {
            std::uint64_t cid = prov_->mintChild(o.provParent);
            if (cid)
                (*c.qs)[o.stage]->stampNextPushId(cid);
        }
        o.commit(*(*c.qs)[o.stage]);
    }
    inFlight_[c.stage] -= c.items;
    pendingPtr_->sub(c.items);
    if (evictable_)
        inFlightBatches_.erase(c.block);
    if (prov_)
        for (std::uint64_t id : c.provIds)
            if (id)
                prov_->noteComplete(id, sim_.now());
    if (obs_)
        noteBatchDone(c.stage, c.block->smId(), c.bstart, c.items);
    c.next();
    return true;
}

void
RunnerBase::awaitCommit(std::unique_ptr<BatchCommit> c, Tick detect)
{
    BlockContext* block = c->block;
    auto retry = [this, c = std::move(c)]() mutable {
        if (!tryCommit(*c))
            awaitCommit(std::move(c), 0.0);
    };
    block->delay(detect > 0.0 ? detect : dev_.config().pollIntervalCycles,
                 std::move(retry));
}

void
RunnerBase::blockAborted(BlockContext& ctx)
{
    auto it = inFlightBatches_.find(&ctx);
    if (it != inFlightBatches_.end()) {
        InFlightBatch b = std::move(it->second);
        inFlightBatches_.erase(it);
        inFlight_[b.stage] -= b.items;
        if (b.capture) {
            // Retryable stage: replay the pre-execution copies.
            stageStats_[b.stage].retried += b.items;
            faultStats_.tasksRetried += b.items;
            if (tracer_)
                tracer_->instant(
                    TraceKind::Retry,
                    static_cast<std::int16_t>(trackBase_ + ctx.smId()),
                    sim_.now(), b.stage, b.items);
            recovery_.scheduleRedeliver(b.stage, b.q,
                                        std::move(b.capture),
                                        b.items, 1);
        } else {
            // Non-retryable: the in-flight items die with the block.
            // (Retryable batches need no hook here — the capture's
            // redelivery re-stamps their ids on re-enqueue.)
            pendingPtr_->sub(b.items);
            stageStats_[b.stage].deadLettered += b.items;
            faultStats_.deadLettered += b.items;
            if (prov_)
                for (std::uint64_t id : b.provIds)
                    if (id)
                        prov_->noteDeadLetter(id, sim_.now());
            if (tracer_)
                tracer_->instant(
                    TraceKind::DeadLetter,
                    static_cast<std::int16_t>(trackBase_ + ctx.smId()),
                    sim_.now(), b.stage, b.items);
        }
    }
    onBlockAborted(ctx);
}

std::string
RunnerBase::deviceTag() const
{
    if (group_->size() == 1)
        return {};
    // Built by appending: GCC 12 at -O3 takes "d" + to_string() for
    // an overlapping copy (a -Wrestrict false positive).
    std::string tag(1, 'd');
    tag += std::to_string(device_);
    tag += '/';
    return tag;
}

void
RunnerBase::registerProbes(Sampler& sampler)
{
    // Per-device series prefix so group runs keep the devices apart.
    std::string pre = deviceTag();
    for (int s = 0; s < pipe_.stageCount(); ++s)
        sampler.addSeries(
            pre + "queue_depth/" + pipe_.stage(s).name, [this, s] {
                return static_cast<double>(queuedFor(s));
            });
    sampler.addSeries(pre + "resident_blocks", [this] {
        return static_cast<double>(dev_.residentBlocks());
    });
    // Occupancy as a block-slot fraction: resident blocks over the
    // device-wide residency limit.
    double slots = static_cast<double>(dev_.numSms())
        * dev_.config().maxBlocksPerSm;
    sampler.addSeries(pre + "occupancy", [this, slots] {
        return slots > 0.0 ? dev_.residentBlocks() / slots : 0.0;
    });
    if (device_ == 0) {
        // pending_work is group-wide; register it once.
        sampler.addSeries("pending_work", [this] {
            return static_cast<double>(pendingPtr_->value());
        });
    }
    sampler.addSeries(pre + "in_flight_retries", [this] {
        return static_cast<double>(recovery_.totalBuffered());
    });
}

std::string
RunnerBase::diagnoseStall() const
{
    std::ostringstream os;
    os << "pipeline stalled at cycle " << sim_.now() << ": pending="
       << pendingPtr_->value() << "\n";
    for (int s = 0; s < pipe_.stageCount(); ++s) {
        os << "  stage `" << pipe_.stage(s).name
           << "`: queued=" << queuedFor(s);
        if (std::size_t cap = queueSets_.front()[s]->capacity())
            os << "/cap" << cap;
        os << " inFlight=" << inFlight_[s]
           << " buffered=" << recovery_.buffered(s)
           << " retried=" << stageStats_[s].retried
           << " deadLettered=" << stageStats_[s].deadLettered << "\n";
    }
    for (int i = 0; i < dev_.numSms(); ++i) {
        const Sm& sm = dev_.sm(i);
        os << "  sm " << i << ": residentBlocks="
           << sm.residentBlocks()
           << (sm.offline() ? " OFFLINE" : "") << "\n";
    }
    return os.str();
}

RunResult
RunnerBase::collect()
{
    RunResult r;
    r.cycles = sim_.now();
    r.ms = dev_.config().cyclesToMs(r.cycles);
    r.simEvents = sim_.eventsRun();
    r.dispatchedEvents = sim_.dispatched();
    r.configName = configName_;
    r.deviceName = dev_.config().name;
    r.device = dev_.stats();
    r.host = host_.stats();
    r.polls = polls_;
    r.retreats = retreats_;
    r.refills = refills_;
    r.extra.set("steals", static_cast<double>(steals_));
    if (adaptiveArmed_) {
        r.extra.set("adaptiveEpochs",
                    static_cast<double>(adaptEpochs_));
        r.extra.set("adaptiveMoves",
                    static_cast<double>(adaptMoves_));
    }

    r.faults = faultStats_;
    r.faults.smsFailed = r.device.smsFailed;
    r.faults.smsDegraded = r.device.smsDegraded;
    r.faults.blocksEvicted = r.device.blocksEvicted;
    r.faults.launchDelays = r.device.launchDelays;
    // Runs that can fault, be evicted or backpressure report their
    // redeliveries.
    bool bounded = false;
    for (int s = 0; s < pipe_.stageCount(); ++s)
        bounded |= pipe_.stage(s).queueCapacity > 0;
    const FaultPlan* plan = injector_ ? &injector_->plan() : nullptr;
    if (bounded || evictable_
        || (plan && (plan->anyTaskFaults() || plan->anyPushFaults()))) {
        r.extra.set("redeliveries",
                    static_cast<double>(recovery_.redeliveries()));
    }

    for (int s = 0; s < pipe_.stageCount(); ++s) {
        StageRunStats st = stageStats_[s];
        for (const QueueSet& qs : queueSets_)
            st.queue += qs[s]->stats();
        r.stages.push_back(std::move(st));
    }

    double issue = 0.0;
    for (int i = 0; i < dev_.numSms(); ++i)
        issue += dev_.sm(i).stats().issueCycles;
    if (r.cycles > 0.0)
        r.smUtilization = issue / (r.cycles * dev_.numSms());
    return r;
}

std::unique_ptr<RunnerBase>
makeRunner(Simulator& sim, Device& dev, Host& host, Pipeline& pipe,
           const PipelineConfig& cfg, RunnerContext rc)
{
    switch (cfg.top) {
      case PipelineConfig::Top::Groups:
        return std::make_unique<GroupsRunner>(sim, dev, host, pipe,
                                              cfg, rc);
      case PipelineConfig::Top::Kbk:
      case PipelineConfig::Top::KbkStream:
        return std::make_unique<KbkRunner>(sim, dev, host, pipe, cfg,
                                           rc);
      case PipelineConfig::Top::DynamicParallelism:
        return std::make_unique<DpRunner>(sim, dev, host, pipe, cfg,
                                          rc);
    }
    VP_PANIC("unknown runner top");
}

} // namespace vp
