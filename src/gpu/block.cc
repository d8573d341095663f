#include "gpu/block.hh"

#include "common/error.hh"
#include "gpu/device.hh"

namespace vp {

BlockContext::BlockContext(Device& dev, Kernel& kernel, int smId,
                           int blockIdx)
    : dev_(dev), kernel_(kernel), smId_(smId), blockIdx_(blockIdx)
{
}

Simulator&
BlockContext::sim()
{
    return dev_.sim();
}

Sm&
BlockContext::sm()
{
    return dev_.sm(smId_);
}

void
BlockContext::complete()
{
    busy_ = false;
    EventFn cb = std::move(cont_);
    cb();
}

void
BlockContext::exec(const WorkSpec& work, EventFn cb)
{
    VP_ASSERT(!exited_, "exec() on an exited block");
    VP_ASSERT(!busy_, "block already has an operation outstanding");
    busy_ = true;
    cont_ = std::move(cb);
    sm().beginWork(work, kernel_.id(), [this] { complete(); });
}

void
BlockContext::delay(Tick cycles, EventFn cb)
{
    hold(std::move(cb));
    pendingEvent_ = sim().after(cycles, [this] { complete(); });
}

void
BlockContext::park(Tick backoff, Tick cap, PollSink* sink, int tag,
                   EventFn cb)
{
    hold(std::move(cb));
    pendingEvent_ = EventHandle();
    chain_ = sim().park(chain_, backoff, cap, sink, tag,
                        [this] { complete(); });
}

Tick
BlockContext::pollBackoff() const
{
    return dev_.sim().backoff(chain_);
}

void
BlockContext::hold(EventFn cb)
{
    VP_ASSERT(!exited_, "delay on an exited block");
    VP_ASSERT(!busy_, "block already has an operation outstanding");
    busy_ = true;
    cont_ = std::move(cb);
}

void
BlockContext::abortForFault()
{
    VP_ASSERT(!exited_, "abort of an exited block");
    // Whatever the block was waiting on — its start event, a delay,
    // or an SM execution the engine already dropped — must never fire
    // into this context again.
    sim().cancel(pendingEvent_);
    pendingEvent_ = EventHandle();
    // The chain handle stays (stale) so the owner can still find the
    // block among its parked ones.
    sim().cancel(chain_);
    cont_.reset();
    busy_ = false;
    aborted_ = true;
    exited_ = true;
}

void
BlockContext::exit()
{
    VP_ASSERT(!exited_, "double exit of block");
    VP_ASSERT(!busy_, "exit() with an operation outstanding");
    exited_ = true;
    dev_.blockExited(*this);
}

} // namespace vp
