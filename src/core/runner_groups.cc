/**
 * @file
 * GroupsRunner: executes RTC / Megakernel / coarse / fine / hybrid
 * configurations with persistent blocks, SM-centric mapping, block
 * mapping, and the online idle-SM refill adaptation of section 7.
 */

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "core/runtime.hh"
#include "core/stage_impl.hh"
#include "gpu/occupancy.hh"

namespace vp {

GroupsRunner::GroupsRunner(Simulator& sim, Device& dev, Host& host,
                           Pipeline& pipe, const PipelineConfig& cfg,
                           FaultContext fc)
    : RunnerBase(sim, dev, host, pipe, cfg, fc)
{
    buildSpecs();
    if (cfg_.distributedQueues) {
        // One queue shard per SM; blocks work on their home shard
        // and steal from the others when it runs dry (sec 8.5's
        // distributed-queue direction).
        for (int i = 0; i < dev_.numSms(); ++i) {
            shards_.push_back(std::make_unique<QueueSet>());
            makeQueues(*shards_.back());
            extraQueueSets_.push_back(shards_.back().get());
        }
    }
    wakeHook_ = sim_.addWakeHook([this] { settleWaiters(); });
}

GroupsRunner::~GroupsRunner()
{
    sim_.removeWakeHook(wakeHook_);
}

void
GroupsRunner::elidedPolls(int tag, std::uint64_t polls, double idle)
{
    polls_ += polls;
    if (adaptiveArmed_)
        adaptIdle_[static_cast<std::size_t>(tag)] += idle;
}

bool
GroupsRunner::hasWork(const KernelSpec& spec) const
{
    for (int s : spec.stages) {
        if (shards_.empty()) {
            if (!queues_[static_cast<std::size_t>(s)]->empty())
                return true;
            continue;
        }
        // findWork steals, so every shard serves the stage set.
        for (const auto& sh : shards_)
            if (!(*sh)[static_cast<std::size_t>(s)]->empty())
                return true;
    }
    return false;
}

void
GroupsRunner::settleWaiters()
{
    // Evaluated on the state at the end of a dispatch (or between
    // slices), so a transient inside one, like a pop before its batch
    // counts in flight, wakes nobody.
    for (std::size_t i = 0; i < waiters_.size(); ++i) {
        if (waiters_[i].empty())
            continue;
        const KernelSpec& spec = specs_[i];
        // A drained watch mask retires the parked blocks, each at its
        // own poll; a budget cut makes the surplus retreat.
        bool all = budgetCut_[i] || !futureWork(spec.watch);
        waiters_[i].settle(sim_, !all && hasWork(spec), all);
    }
    std::fill(budgetCut_.begin(), budgetCut_.end(), 0);
}

QueueSet&
GroupsRunner::homeQueues(int smId)
{
    if (shards_.empty())
        return queues_;
    return *shards_[smId % shards_.size()];
}

QueueBase&
GroupsRunner::deliveryQueue(int stage, std::uint64_t hint)
{
    if (shards_.empty())
        return *queues_[stage];
    return *(*shards_[hint % shards_.size()])[stage];
}

int
GroupsRunner::findWork(int smId, const std::vector<int>& stages,
                       QueueSet*& qs)
{
    qs = &homeQueues(smId);
    int s = pickStage(*qs, stages);
    if (s >= 0 || shards_.empty())
        return s;
    // Steal scan over the other shards, nearest-first.
    int n = static_cast<int>(shards_.size());
    for (int d = 1; d < n; ++d) {
        QueueSet& victim = *shards_[(smId + d) % n];
        int found = pickStage(victim, stages);
        if (found >= 0) {
            ++steals_;
            qs = &victim;
            return found;
        }
    }
    return -1;
}

void
GroupsRunner::buildSpecs()
{
    builtGroups_.assign(cfg_.groups.size(), 0);
    for (std::size_t g = 0; g < cfg_.groups.size(); ++g) {
        const StageGroup& grp = cfg_.groups[g];
        // Groups homed on another device launch no kernels here.
        // Placement is uniform within a group (ShardPlan::validate),
        // so the first stage decides for all of them.
        if (!grp.stages.empty()
            && shard_->plan->pinnedElsewhere(grp.stages.front(),
                                             shard_->deviceIndex))
            continue;
        buildGroupSpecs(g);
    }
}

void
GroupsRunner::buildGroupSpecs(std::size_t g)
{
    builtGroups_[g] = 1;
    {
        const StageGroup& grp = cfg_.groups[g];
        auto configured_blocks = [&](int key) {
            auto it = grp.blocksPerSm.find(key);
            return it == grp.blocksPerSm.end() ? 0 : it->second;
        };
        if (grp.model == ExecModel::FinePipeline) {
            // One kernel per stage; blocks of several stages share
            // each assigned SM.
            for (int s : grp.stages) {
                KernelSpec spec;
                spec.name = pipe_.stage(s).name + "_fine";
                spec.stages = {s};
                spec.watch = watchMask(spec.stages);
                spec.res = pipe_.stage(s).resources;
                spec.sms = grp.sms;
                spec.threads = stageBlockThreads(s);
                int want = configured_blocks(s);
                if (want <= 0) {
                    want = maxBlocksPerSm(dev_.config(), spec.res,
                                          spec.threads)
                               .blocksPerSm;
                }
                spec.blocksPerSm = std::max(1, want);
                spec.groupIdx = static_cast<int>(g);
                spec.fine = true;
                specs_.push_back(std::move(spec));
            }
        } else {
            // RTC or Megakernel: one kernel for the whole group.
            KernelSpec spec;
            std::ostringstream name;
            name << (grp.model == ExecModel::RTC ? "rtc" : "mega");
            for (int s : grp.stages)
                name << "_" << pipe_.stage(s).name;
            spec.name = name.str();
            spec.res = mergedResources(pipe_, grp.stages);
            if (grp.model == ExecModel::Megakernel
                && grp.stages.size() > 1) {
                spec.res.regsPerThread = std::min(
                    255, spec.res.regsPerThread
                         + pipe_.megakernelExtraRegs);
            }
            spec.sms = grp.sms;
            spec.threads = cfg_.threadsPerBlock;
            spec.groupIdx = static_cast<int>(g);
            if (grp.model == ExecModel::RTC) {
                // The kernel serves the entry stage; the rest of the
                // group is inlined into the same tasks.
                spec.stages = {grp.stages.front()};
                for (std::size_t i = 1; i < grp.stages.size(); ++i) {
                    spec.inlineMask |=
                        StageMask(1) << grp.stages[i];
                }
            } else {
                spec.stages = grp.stages;
            }
            spec.watch = watchMask(spec.stages);
            int want = configured_blocks(-1);
            if (want <= 0) {
                want = maxBlocksPerSm(dev_.config(), spec.res,
                                      cfg_.threadsPerBlock)
                           .blocksPerSm;
            }
            VP_REQUIRE(want > 0, "group kernel `" << spec.name
                       << "` cannot be launched: zero occupancy");
            spec.blocksPerSm = want;
            specs_.push_back(std::move(spec));
        }
    }
    blockCount_.resize(specs_.size()
                           * static_cast<std::size_t>(dev_.numSms()),
                       0);
    waiters_.resize(specs_.size());
    budgetCut_.resize(specs_.size(), 0);
}

void
GroupsRunner::adoptStages(const std::vector<int>& stages)
{
    std::size_t before = specs_.size();
    for (std::size_t g = 0; g < cfg_.groups.size(); ++g) {
        if (builtGroups_[g])
            continue;
        const StageGroup& grp = cfg_.groups[g];
        bool adopted = false;
        for (int s : grp.stages)
            adopted = adopted
                || std::find(stages.begin(), stages.end(), s)
                    != stages.end();
        if (adopted)
            buildGroupSpecs(g);
    }
    if (adaptiveArmed_) {
        adaptIdle_.resize(specs_.size(), 0.0);
        adaptIdleLast_.resize(specs_.size(), 0.0);
    }
    for (std::size_t i = before; i < specs_.size(); ++i)
        launchSpec(static_cast<int>(i), specs_[i].sms, false);
}

void
GroupsRunner::start(AppDriver& driver)
{
    // The group coordinator has seeded the run, routing each item to
    // its device and (under distributed queues) to queue shard
    // ordinal % numSms. The input transfer happens once, identically
    // for every model.
    host_.memcpy(driver.inputBytes(), [this] {
        for (std::size_t i = 0; i < specs_.size(); ++i)
            launchSpec(static_cast<int>(i), specs_[i].sms, false);
    });
}

void
GroupsRunner::launchSpec(int specIdx, const std::vector<int>& sms,
                         bool isRefill)
{
    const KernelSpec& spec = specs_[specIdx];
    int sm_count = sms.empty() ? dev_.numSms()
                               : static_cast<int>(sms.size());
    int grid = spec.blocksPerSm * sm_count;
    auto kernel = std::make_shared<Kernel>(
        isRefill ? spec.name + "_refill" : spec.name, spec.res,
        spec.threads, grid,
        [this, specIdx](BlockContext& ctx) {
            blockMain(ctx, specIdx);
        });
    kernel->setAllowedSms(sms);
    ++liveKernels_;
    if (specLiveKernels_.size() < specs_.size())
        specLiveKernels_.resize(specs_.size(), 0);
    ++specLiveKernels_[static_cast<std::size_t>(specIdx)];
    kernel->notifyOnComplete([this, specIdx] {
        --liveKernels_;
        --specLiveKernels_[static_cast<std::size_t>(specIdx)];
        onKernelComplete();
    });
    Stream* stream = dev_.createStream();
    host_.launchAsync(stream, kernel);
    // Record which kernel ids serve which stages (for locality and
    // the SM-mapping introspection in tests). The id is assigned at
    // device launch; bind after the launch is enqueued.
    std::vector<int> stages = spec.stages;
    Kernel* kp = kernel.get();
    sim_.after(0.0, [this, kp, stages] {
        if (kp->id() >= 0)
            for (int s : stages)
                bindStageKernel(s, kp->id());
    });
}

void
GroupsRunner::serveWake()
{
    // Epoch seeding may have landed work for a stage group whose
    // persistent blocks all retired while the pipeline idled between
    // request bursts: relaunch exactly those specs. Groups with live
    // kernels keep their resident blocks — they poll and pick the
    // new work up — so a wake costs nothing while the pipeline is
    // busy.
    if (specLiveKernels_.size() < specs_.size())
        specLiveKernels_.resize(specs_.size(), 0);
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        if (specLiveKernels_[i] > 0)
            continue;
        if (!futureWork(specs_[i].watch))
            continue;
        launchSpec(static_cast<int>(i), specs_[i].sms, false);
    }
}

void
GroupsRunner::blockMain(BlockContext& ctx, int specIdx)
{
    const KernelSpec& spec = specs_[specIdx];
    // Block-mapping check (filling-retreating): each stage keeps a
    // per-SM block counter; blocks beyond the budget retreat.
    int& count = blocksOn(specIdx, ctx.smId());
    if (count >= spec.blocksPerSm) {
        ++retreats_;
        if (tracer_)
            tracer_->instant(TraceKind::Retreat,
                             static_cast<std::int16_t>(trackBase_
                                                       + ctx.smId()),
                             sim_.now(), specIdx);
        ctx.delay(20.0, [&ctx] { ctx.exit(); });
        return;
    }
    ++count;
    if (evictable_)
        blockSpec_[&ctx] = specIdx;
    blockLoop(ctx, specIdx, dev_.config().pollIntervalCycles);
}

void
GroupsRunner::blockLoop(BlockContext& ctx, int specIdx,
                        Tick pollBackoff)
{
    const KernelSpec& spec = specs_[specIdx];
    if (adaptiveArmed_) {
        // The controller shrank this spec's per-SM budget: surplus
        // blocks retreat, freeing their slot for the receiving
        // stage's refill. Guarded by the armed flag, so unadapted
        // runs take exactly the pre-controller path.
        int& count = blocksOn(specIdx, ctx.smId());
        if (count > spec.blocksPerSm) {
            --count;
            blockSpec_.erase(&ctx);
            ++retreats_;
            if (tracer_)
                tracer_->instant(
                    TraceKind::Retreat,
                    static_cast<std::int16_t>(trackBase_
                                              + ctx.smId()),
                    sim_.now(), specIdx);
            ctx.delay(20.0, [&ctx] { ctx.exit(); });
            return;
        }
    }
    if (!futureWork(spec.watch)) {
        // This stage group has fully drained: retire the block.
        --blocksOn(specIdx, ctx.smId());
        blockSpec_.erase(&ctx);
        ctx.exit();
        return;
    }
    QueueSet* qs = nullptr;
    int s = findWork(ctx.smId(), spec.stages, qs);
    if (s < 0) {
        // Upstream still working: poll with exponential backoff. The
        // block parks; its polls stay virtual until settleWaiters
        // wakes the one that can see new work.
        ++polls_;
        if (adaptiveArmed_)
            adaptIdle_[static_cast<std::size_t>(specIdx)]
                += pollBackoff;
        ctx.park(pollBackoff, dev_.config().pollIntervalCycles * 3.0,
                 this, specIdx, [this, &ctx, specIdx] {
                     waiters_[static_cast<std::size_t>(specIdx)].remove(
                         ctx.chain());
                     blockLoop(ctx, specIdx, ctx.pollBackoff());
                 });
        waiters_[static_cast<std::size_t>(specIdx)].add(ctx.chain());
        return;
    }
    processBatch(ctx, *qs, s, spec.inlineMask, -1,
                 [this, &ctx, specIdx] {
                     blockLoop(ctx, specIdx,
                               dev_.config().pollIntervalCycles);
                 },
                 &homeQueues(ctx.smId()));
}

void
GroupsRunner::onBlockAborted(BlockContext& ctx)
{
    auto it = blockSpec_.find(&ctx);
    if (it == blockSpec_.end())
        return;
    // The evicted block no longer occupies its block-mapping slot;
    // if it was parked, the next earliest poll takes its place.
    --blocksOn(it->second, ctx.smId());
    waiters_[static_cast<std::size_t>(it->second)].remove(ctx.chain());
    blockSpec_.erase(it);
}

void
GroupsRunner::onSmFailed(int sm)
{
    (void)sm;
    if (dev_.numOnlineSms() <= 0)
        return;
    // Graceful degradation: re-provision every spec that may still
    // see work onto the surviving SMs. Blocks landing on SMs already
    // at their block-mapping budget simply retreat, so this is safe
    // to over-apply; for specs whose SM binding died entirely it is
    // what brings their stages back to life.
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        const KernelSpec& spec = specs_[i];
        if (!futureWork(spec.watch))
            continue;
        std::vector<int> sms;
        for (int bound : spec.sms)
            if (!dev_.sm(bound).offline())
                sms.push_back(bound);
        // A spec bound only to dead SMs spreads over all survivors
        // (an empty set means "any SM"; offline ones refuse blocks).
        ++faultStats_.degradeRelaunches;
        launchSpec(static_cast<int>(i), sms, true);
    }
}

void
GroupsRunner::onKernelComplete()
{
    if (cfg_.onlineAdaptation && !pendingPtr_->done())
        maybeRefill();
}

void
GroupsRunner::maybeRefill()
{
    if (refillBudget_ <= 0)
        return;
    // Pick the stage with the most stalled items (sec 7: "it chooses
    // the stage group with the most data items stalled in its
    // queues") and widen its kernel onto all SMs.
    int best = -1;
    std::size_t depth = 0;
    for (int s = 0; s < pipe_.stageCount(); ++s) {
        if (totalQueued(s) > depth) {
            depth = totalQueued(s);
            best = s;
        }
    }
    if (best < 0)
        return;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        const KernelSpec& spec = specs_[i];
        if (std::find(spec.stages.begin(), spec.stages.end(), best)
            == spec.stages.end())
            continue;
        --refillBudget_;
        ++refills_;
        if (tracer_)
            tracer_->instant(TraceKind::Refill, 0, sim_.now(), best,
                             static_cast<std::int32_t>(depth));
        VP_DEBUG("online tuner: refilling `" << spec.name << "` ("
                 << depth << " items stalled)");
        launchSpec(static_cast<int>(i), {}, true);
        return;
    }
}

bool
GroupsRunner::armAdaptive(const AdaptiveConfig& cfg)
{
    // Adjustable targets: fine-pipeline specs in groups with at
    // least two of them (a lone fine stage has nobody to trade
    // block budget with). Under sharding only locally homed groups
    // built specs, so each device's controller is independent.
    adaptTargets_.clear();
    std::map<int, int> finePerGroup;
    for (const KernelSpec& spec : specs_)
        if (spec.fine)
            ++finePerGroup[spec.groupIdx];
    std::vector<int> caps;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        const KernelSpec& spec = specs_[i];
        if (!spec.fine || finePerGroup[spec.groupIdx] < 2)
            continue;
        adaptTargets_.push_back(static_cast<int>(i));
        // A receiver may grow past its tuned budget up to the
        // occupancy limit of its own kernel.
        caps.push_back(std::max(
            spec.blocksPerSm,
            maxBlocksPerSm(dev_.config(), spec.res, spec.threads)
                .blocksPerSm));
    }
    if (adaptTargets_.size() < 2) {
        adaptTargets_.clear();
        return false;
    }
    for (int t : adaptTargets_) {
        int s = specs_[static_cast<std::size_t>(t)].stages.front();
        queues_[static_cast<std::size_t>(s)]->enableDepthEwma(
            cfg.ewmaAlpha);
        for (auto& sh : shards_)
            (*sh)[static_cast<std::size_t>(s)]->enableDepthEwma(
                cfg.ewmaAlpha);
    }
    adaptCfg_ = cfg;
    adaptIdle_.assign(specs_.size(), 0.0);
    adaptIdleLast_.assign(specs_.size(), 0.0);
    adaptCtl_ = std::make_unique<AdaptiveController>(
        cfg, std::move(caps));
    adaptiveArmed_ = true;
    return true;
}

double
GroupsRunner::adaptDepth(int specIdx) const
{
    int s = specs_[static_cast<std::size_t>(specIdx)].stages.front();
    double d = queues_[static_cast<std::size_t>(s)]->depthEwma();
    for (const auto& sh : shards_)
        d += (*sh)[static_cast<std::size_t>(s)]->depthEwma();
    return d;
}

void
GroupsRunner::adaptEpoch()
{
    if (!adaptCtl_)
        return;
    std::vector<AdaptiveLoad> loads;
    loads.reserve(adaptTargets_.size());
    for (int t : adaptTargets_) {
        const KernelSpec& spec = specs_[static_cast<std::size_t>(t)];
        AdaptiveLoad l;
        l.depth = adaptDepth(t);
        l.blocks = spec.blocksPerSm;
        l.group = spec.groupIdx;
        l.drained = !futureWork(spec.watch);
        // Occupancy: poll-wait cycles this spec's blocks burned
        // since the last epoch, normalised by the block-time the
        // epoch offered them.
        double idleDelta = adaptIdle_[static_cast<std::size_t>(t)]
            - adaptIdleLast_[static_cast<std::size_t>(t)];
        adaptIdleLast_[static_cast<std::size_t>(t)] =
            adaptIdle_[static_cast<std::size_t>(t)];
        int smCount = spec.sms.empty()
            ? dev_.numSms()
            : static_cast<int>(spec.sms.size());
        l.idleFrac = idleDelta
            / (adaptCfg_.epochCycles
               * std::max(1, spec.blocksPerSm * smCount));
        loads.push_back(l);
    }
    ++adaptEpochs_;
    if (obs_)
        obs_->metrics.counter("adaptive/epochs").add();
    if (tracer_)
        tracer_->instant(TraceKind::AdaptiveEpoch, 0, sim_.now(),
                         static_cast<std::int32_t>(adaptMoves_));
    auto move = adaptCtl_->step(loads);
    if (!move)
        return;
    int from = adaptTargets_[static_cast<std::size_t>(move->from)];
    int to = adaptTargets_[static_cast<std::size_t>(move->to)];
    specs_[static_cast<std::size_t>(from)].blocksPerSm -=
        move->count;
    budgetCut_[static_cast<std::size_t>(from)] = 1;
    specs_[static_cast<std::size_t>(to)].blocksPerSm += move->count;
    adaptMoves_ += static_cast<std::uint64_t>(move->count);
    if (obs_)
        obs_->metrics.counter("adaptive/moves")
            .add(static_cast<std::uint64_t>(move->count));
    if (tracer_)
        tracer_->instant(
            TraceKind::AdaptiveMove, 0, sim_.now(),
            specs_[static_cast<std::size_t>(from)].stages.front(),
            specs_[static_cast<std::size_t>(to)].stages.front());
    VP_DEBUG("adaptive: +" << move->count << " block/SM `"
             << specs_[static_cast<std::size_t>(to)].name << "` <- `"
             << specs_[static_cast<std::size_t>(from)].name << "`");
    // The receiver gains its blocks through a refill launch: the
    // wider grid fills the raised per-SM budget and the surplus
    // retreats on arrival. Donor blocks over budget retreat at
    // their next loop iteration (see blockLoop); parked ones are
    // woken for it.
    launchSpec(to, specs_[static_cast<std::size_t>(to)].sms, true);
}

} // namespace vp
