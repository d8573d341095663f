/**
 * @file
 * Per-block execution context handed to a kernel's BlockLogic.
 *
 * A block drives itself in continuation-passing style: exec() submits
 * work to the SM's processor-sharing engine, delay() models fixed-cost
 * actions (queue operations, backoffs), park() waits out idle polls,
 * and exit() retires the block and frees its SM resources. All
 * continuations are trampolined through the simulator's event loop,
 * so there is no recursion-depth concern.
 */

#ifndef VP_GPU_BLOCK_HH
#define VP_GPU_BLOCK_HH

#include "gpu/cost_model.hh"
#include "sim/simulator.hh"

namespace vp {

class Device;
class Kernel;
class Sm;

/** Runtime state of one resident block. */
class BlockContext
{
  public:
    BlockContext(Device& dev, Kernel& kernel, int smId, int blockIdx);

    BlockContext(const BlockContext&) = delete;
    BlockContext& operator=(const BlockContext&) = delete;

    /** The SM this block is resident on. */
    int smId() const { return smId_; }

    /** Index of this block within its kernel's grid. */
    int blockIdx() const { return blockIdx_; }

    /** The kernel this block belongs to. */
    Kernel& kernel() { return kernel_; }

    /** The device this block runs on. */
    Device& device() { return dev_; }

    /** The simulator clock. */
    Simulator& sim();

    /** The SM object this block is resident on. */
    Sm& sm();

    /**
     * Execute @p work on the SM under processor sharing, then invoke
     * @p cb. The block may not have another exec/delay outstanding.
     */
    void exec(const WorkSpec& work, EventFn cb);

    /** Busy-occupy the block for @p cycles, then invoke @p cb. */
    void delay(Tick cycles, EventFn cb);

    /**
     * Park after a poll that found nothing: the next poll is due in
     * @p backoff cycles and later ones back off up to @p cap, all
     * virtual (Simulator::park) until the owner wakes chain(); the
     * woken poll runs @p cb. Parking again from the woken poll
     * continues the same chain.
     */
    void park(Tick backoff, Tick cap, PollSink* sink, int tag,
              EventFn cb);

    /** The block's poll chain (stale once it ended). */
    PollChain chain() const { return chain_; }

    /** Backoff of the running woken poll. */
    Tick pollBackoff() const;

    /** Retire the block, freeing its SM resources. */
    void exit();

    /** True once exit() has been called. */
    bool exited() const { return exited_; }

    /** True when the block was torn down by an SM failure. */
    bool aborted() const { return aborted_; }

  private:
    friend class Device;

    /** Finish the outstanding operation and run its continuation. */
    void complete();

    /** Mark a delay outstanding with continuation @p cb. */
    void hold(EventFn cb);

    /**
     * Tear the block down after an SM failure: cancel the pending
     * start/delay event or poll chain, drop the continuation, and
     * mark the block exited without the exit() invariants (the SM
     * engine has already dropped any in-flight exec). Called by
     * Device only.
     */
    void abortForFault();

    Device& dev_;
    Kernel& kernel_;
    int smId_;
    int blockIdx_;
    /**
     * Continuation of the single outstanding exec/delay. Keeping it
     * here (instead of capturing it into the scheduled event) keeps
     * the per-event closure down to one pointer, which always fits
     * EventFn's inline buffer.
     */
    EventFn cont_;
    /** Pending kernel-start or delay event, for fault abort. */
    EventHandle pendingEvent_;
    /** The poll chain while parked (and during its woken poll). */
    PollChain chain_;
    bool busy_ = false;
    bool exited_ = false;
    bool aborted_ = false;
};

} // namespace vp

#endif // VP_GPU_BLOCK_HH
