#include "gpu/device.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/logging.hh"
#include "gpu/block.hh"
#include "sim/fault.hh"

namespace vp {

Device::Device(Simulator& sim, DeviceConfig cfg)
    : sim_(sim), cfg_(std::move(cfg))
{
    VP_REQUIRE(cfg_.numSms > 0, "device needs at least one SM");
    for (int i = 0; i < cfg_.numSms; ++i)
        sms_.push_back(std::make_unique<Sm>(sim_, cfg_, i));
    streams_.push_back(std::make_unique<Stream>(0));
}

Sm&
Device::sm(int i)
{
    VP_ASSERT(i >= 0 && i < numSms(), "SM index " << i << " out of range");
    return *sms_[i];
}

void
Device::setTracer(Tracer* t)
{
    tracer_ = t;
    for (auto& s : sms_)
        s->setTracer(t);
}

void
Device::setTraceTrackBase(int smBase, int streamBase)
{
    smTrackBase_ = smBase;
    streamTrackBase_ = streamBase;
    for (std::size_t i = 0; i < sms_.size(); ++i)
        sms_[i]->setTraceTrack(smBase + static_cast<int>(i));
}

void
Device::traceResidency(int smId)
{
    if (tracer_)
        tracer_->counter(TraceKind::ResidentBlocks,
                         static_cast<std::int16_t>(smTrackBase_
                                                   + smId),
                         sim_.now(),
                         sms_[static_cast<std::size_t>(smId)]
                             ->residentBlocks());
}

Stream*
Device::createStream()
{
    streams_.push_back(
        std::make_unique<Stream>(static_cast<int>(streams_.size())));
    return streams_.back().get();
}

void
Device::launch(Stream* stream, std::shared_ptr<Kernel> kernel)
{
    VP_REQUIRE(stream, "null stream");
    VP_REQUIRE(kernel, "null kernel");
    if (tracer_)
        tracer_->instant(TraceKind::KernelLaunch, 0, sim_.now(),
                         tracer_->intern(kernel->name()),
                         kernel->gridBlocks());
    if (injector_) {
        Tick d = injector_->launchDelay();
        if (d > 0.0) {
            ++stats_.launchDelays;
            if (tracer_)
                tracer_->instant(TraceKind::LaunchDelay, 0,
                                 sim_.now(),
                                 tracer_->intern(kernel->name()),
                                 static_cast<std::int32_t>(d));
            VP_DEBUG("device: launch of `" << kernel->name()
                     << "` delayed " << d << " cycles (fault)");
            sim_.after(d,
                       [this, stream, k = std::move(kernel)]() mutable {
                           doLaunch(stream, std::move(k));
                       });
            return;
        }
    }
    doLaunch(stream, std::move(kernel));
}

void
Device::doLaunch(Stream* stream, std::shared_ptr<Kernel> kernel)
{
    kernel->id_ = nextKernelId_++;
    kernelStream_.push_back(stream);
    live_.emplace_back();
    VP_ASSERT(static_cast<int>(kernelStream_.size()) == nextKernelId_,
              "kernel id bookkeeping out of sync");
    ++stats_.kernelLaunches;
    stream->pending_.push_back(std::move(kernel));
    streamAdvance(stream);
}

void
Device::streamAdvance(Stream* stream)
{
    if (stream->running_ || stream->pending_.empty())
        return;
    stream->running_ = stream->pending_.front();
    stream->pending_.pop_front();
    live_[static_cast<std::size_t>(stream->running_->id())] =
        stream->running_;
    Kernel* k = stream->running_.get();
    std::array<int, 3> fp{k->threadsPerBlock(),
                          k->resources().regsPerThread
                              * k->threadsPerBlock(),
                          k->resources().smemPerBlock};
    auto group = std::find_if(
        placing_.begin(), placing_.end(),
        [&](const Placing& p) { return p.footprint == fp; });
    if (group == placing_.end())
        group = placing_.insert(placing_.end(), Placing{fp, {}});
    group->kernels.emplace_back(nextStart_++, k);
    VP_DEBUG("device: kernel `" << stream->running_->name()
             << "` starts on stream " << stream->id());
    if (tracer_)
        tracer_->begin(TraceKind::KernelSpan,
                       static_cast<std::int16_t>(streamTrackBase_
                                                 + stream->id()),
                       sim_.now(),
                       tracer_->intern(stream->running_->name()));
    scheduleDispatch();
}

void
Device::scheduleDispatch()
{
    if (dispatchScheduled_)
        return;
    dispatchScheduled_ = true;
    sim_.after(0.0, [this] {
        dispatchScheduled_ = false;
        tryDispatch();
    });
}

void
Device::tryDispatch()
{
    bool progress = true;
    while (progress) {
        progress = false;
        for (int i = 0; i < numSms(); ++i) {
            int sm_idx = (rrSm_ + i) % numSms();
            Sm& target = *sms_[sm_idx];
            // The first started kernel that may run here and fits: all
            // kernels of a footprint fit or none does, so each
            // footprint's first kernel allowed here is its candidate.
            const std::pair<std::uint64_t, Kernel*>* best = nullptr;
            for (const Placing& p : placing_) {
                auto it = std::find_if(
                    p.kernels.begin(), p.kernels.end(),
                    [&](const auto& e) {
                        return e.second->allowedOn(sm_idx);
                    });
                if (it == p.kernels.end()
                    || (best && best->first < it->first))
                    continue;
                if (target.canFit(it->second->resources(),
                                  it->second->threadsPerBlock()))
                    best = &*it;
            }
            if (!best)
                continue;
            Kernel* k = best->second;
            // Place one block of kernel k on this SM.
            target.occupy(k->resources(), k->threadsPerBlock(),
                          k->id());
            traceResidency(sm_idx);
            int idx = k->blocksDispatched_++;
            ++stats_.blocksDispatched;
            stats_.peakResidentBlocks =
                std::max(stats_.peakResidentBlocks, residentBlocks());
            auto ctx =
                std::make_unique<BlockContext>(*this, *k, sm_idx, idx);
            BlockContext* raw = ctx.get();
            blocks_.push_back(std::move(ctx));
            // The start event is remembered on the context so an SM
            // failure can cancel a block that never began.
            raw->pendingEvent_ = sim_.after(
                cfg_.blockStartCycles, [k, raw] { k->logic_(*raw); });
            if (k->blocksDispatched_ == k->gridBlocks_)
                placed(k);
            progress = true;
        }
        rrSm_ = (rrSm_ + 1) % numSms();
    }
}

void
Device::placed(Kernel* k)
{
    // An emptied footprint keeps its group (and its storage): the
    // next kernel of that footprint reuses it.
    for (Placing& p : placing_) {
        auto it = std::find_if(p.kernels.begin(), p.kernels.end(),
                               [&](const auto& e) {
                                   return e.second == k;
                               });
        if (it != p.kernels.end()) {
            p.kernels.erase(it);
            return;
        }
    }
}

void
Device::blockExited(BlockContext& ctx)
{
    Kernel& k = ctx.kernel();
    sms_[ctx.smId()]->release(k.resources(), k.threadsPerBlock(),
                              k.id());
    traceResidency(ctx.smId());
    ++k.blocksExited_;
    if (k.completed())
        kernelCompleted(live_[static_cast<std::size_t>(k.id())]);
    else
        scheduleDispatch();
}

void
Device::kernelCompleted(const std::shared_ptr<Kernel>& kernel)
{
    VP_DEBUG("device: kernel `" << kernel->name() << "` completed");
    std::shared_ptr<Kernel> k = kernel; // keep alive past erase
    if (tracer_)
        tracer_->end(TraceKind::KernelSpan,
                     static_cast<std::int16_t>(
                         streamTrackBase_
                         + kernelStream_[k->id()]->id()),
                     sim_.now(), tracer_->intern(k->name()));
    live_[static_cast<std::size_t>(k->id())].reset();

    // Free this kernel's block contexts once the stack unwinds.
    sim_.after(0.0, [this, k] {
        blocks_.erase(
            std::remove_if(blocks_.begin(), blocks_.end(),
                           [&](const std::unique_ptr<BlockContext>& b) {
                               return &b->kernel() == k.get();
                           }),
            blocks_.end());
    });

    Stream* stream = kernelStream_[k->id()];
    VP_ASSERT(stream->running_ == k, "stream/kernel mismatch");
    stream->running_.reset();

    for (auto& fn : k->onComplete_)
        sim_.after(0.0, fn);

    streamAdvance(stream);

    if (stream->idle()) {
        auto cbs = std::move(stream->idleCallbacks_);
        stream->idleCallbacks_.clear();
        for (auto& fn : cbs)
            sim_.after(0.0, fn);
    }
    if (idle()) {
        auto cbs = std::move(deviceIdleCallbacks_);
        deviceIdleCallbacks_.clear();
        for (auto& fn : cbs)
            sim_.after(0.0, fn);
    }
    scheduleDispatch();
}

void
Device::failSm(int smId)
{
    Sm& failed = sm(smId);
    VP_CHECK(!failed.offline(), ErrorCode::SmFailure,
             "SM " << smId << " failed twice");
    failed.setOffline();
    ++stats_.smsFailed;
    VP_DEBUG("device: SM " << smId << " failed");
    if (tracer_)
        tracer_->instant(TraceKind::SmFail,
                         static_cast<std::int16_t>(smTrackBase_
                                                   + smId),
                         sim_.now());

    // Evict every resident block. kernelCompleted() only mutates
    // blocks_ via deferred events, so iterating by index is safe.
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        BlockContext* ctx = blocks_[i].get();
        if (ctx->smId() != smId || ctx->exited())
            continue;
        Kernel& k = ctx->kernel();
        ctx->abortForFault();
        if (blockAbortHook_)
            blockAbortHook_(*ctx);
        failed.release(k.resources(), k.threadsPerBlock(), k.id());
        traceResidency(smId);
        ++k.blocksExited_;
        ++stats_.blocksEvicted;
        if (k.completed())
            kernelCompleted(live_[static_cast<std::size_t>(k.id())]);
    }

    retireStrandedKernels();

    if (smFailedHook_)
        smFailedHook_(smId);

    // Still-placeable kernels re-dispatch their remaining blocks
    // onto the survivors.
    scheduleDispatch();
}

void
Device::failDevice()
{
    bool any = false;
    for (int s = 0; s < numSms(); ++s) {
        if (sms_[static_cast<std::size_t>(s)]->offline())
            continue;
        any = true;
        sms_[static_cast<std::size_t>(s)]->setOffline();
        ++stats_.smsFailed;
        if (tracer_)
            tracer_->instant(TraceKind::SmFail,
                             static_cast<std::int16_t>(smTrackBase_
                                                       + s),
                             sim_.now());
    }
    if (!any)
        return;
    VP_DEBUG("device: all SMs failed (device kill)");

    // Evict every resident block on every SM. kernelCompleted()
    // only mutates blocks_ via deferred events, so iterating by
    // index is safe.
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        BlockContext* ctx = blocks_[i].get();
        if (ctx->exited())
            continue;
        Kernel& k = ctx->kernel();
        int smId = ctx->smId();
        ctx->abortForFault();
        if (blockAbortHook_)
            blockAbortHook_(*ctx);
        sm(smId).release(k.resources(), k.threadsPerBlock(), k.id());
        traceResidency(smId);
        ++k.blocksExited_;
        ++stats_.blocksEvicted;
        if (k.completed())
            kernelCompleted(live_[static_cast<std::size_t>(k.id())]);
    }

    retireStrandedKernels();
    scheduleDispatch();
}

void
Device::retireStrandedKernels()
{
    // Snapshot, in start order: kernelCompleted() can start kernels.
    std::vector<std::pair<std::uint64_t, Kernel*>> snapshot;
    for (const Placing& p : placing_)
        snapshot.insert(snapshot.end(), p.kernels.begin(),
                        p.kernels.end());
    std::sort(snapshot.begin(), snapshot.end());
    for (auto [start, k] : snapshot) {
        bool placeable = false;
        for (int s = 0; s < numSms() && !placeable; ++s)
            placeable = k->allowedOn(s) && !sms_[s]->offline();
        if (placeable)
            continue;
        VP_DEBUG("device: kernel `" << k->name()
                 << "` stranded (all allowed SMs offline)");
        // Undispatched blocks can never run; count them exited so
        // the kernel completes and its stream advances. Evicted
        // blocks were already counted by failSm().
        k->blocksExited_ +=
            k->gridBlocks_ - k->blocksDispatched_;
        k->blocksDispatched_ = k->gridBlocks_;
        VP_ASSERT(k->completed(), "stranded kernel not completed");
        placed(k);
        kernelCompleted(live_[static_cast<std::size_t>(k->id())]);
    }
}

void
Device::degradeSm(int smId, double factor)
{
    VP_CHECK(factor > 0.0 && factor <= 1.0, ErrorCode::Config,
             "degrade factor " << factor << " for SM " << smId
                               << " outside (0, 1]");
    Sm& s = sm(smId);
    VP_CHECK(!s.offline(), ErrorCode::SmFailure,
             "cannot degrade offline SM " << smId);
    s.setThrottle(factor);
    ++stats_.smsDegraded;
    VP_DEBUG("device: SM " << smId << " degraded to " << factor
             << "x throughput");
    if (tracer_)
        tracer_->instant(
            TraceKind::SmDegrade,
            static_cast<std::int16_t>(smTrackBase_ + smId),
            sim_.now(), 0,
            static_cast<std::int32_t>(factor * 100.0));
}

int
Device::numOnlineSms() const
{
    int n = 0;
    for (const auto& s : sms_)
        if (!s->offline())
            ++n;
    return n;
}

void
Device::whenStreamIdle(Stream* stream, std::function<void()> fn)
{
    if (stream->idle()) {
        sim_.after(0.0, std::move(fn));
        return;
    }
    stream->idleCallbacks_.push_back(std::move(fn));
}

void
Device::whenDeviceIdle(std::function<void()> fn)
{
    if (idle()) {
        sim_.after(0.0, std::move(fn));
        return;
    }
    deviceIdleCallbacks_.push_back(std::move(fn));
}

bool
Device::idle() const
{
    for (const auto& s : streams_)
        if (!s->idle())
            return false;
    return true;
}

int
Device::residentBlocks() const
{
    int total = 0;
    for (const auto& s : sms_)
        total += s->residentBlocks();
    return total;
}

} // namespace vp
