/**
 * @file
 * One streaming multiprocessor: residency accounting plus a
 * processor-sharing execution engine.
 *
 * Resident block-batches ("executions") share the SM's issue bandwidth
 * proportionally to their demand (warps x per-warp sustainable rate),
 * subject to the SM issue width, the DRAM bandwidth share, and an
 * instruction-cache penalty when the resident code footprint exceeds
 * the i-cache. Rates are recomputed whenever residency changes, so
 * latency hiding (more resident warps -> higher utilization) and
 * interference fall out of the model naturally.
 */

#ifndef VP_GPU_SM_HH
#define VP_GPU_SM_HH

#include <cstdint>
#include <map>
#include <vector>

#include "gpu/cost_model.hh"
#include "gpu/device_config.hh"
#include "gpu/resources.hh"
#include "obs/trace.hh"
#include "sim/simulator.hh"

namespace vp {

/** Aggregate statistics of one SM over a run. */
struct SmStats
{
    /** Integral of "some execution resident" over time (cycles). */
    double activeCycles = 0.0;
    /** Integral of issue-slot utilization over time (slot-cycles). */
    double issueCycles = 0.0;
    /** Total warp instructions retired. */
    double instsRetired = 0.0;
    /** Completed block-batch executions. */
    std::uint64_t execsCompleted = 0;
};

/** A streaming multiprocessor. */
class Sm
{
  public:
    using ExecId = std::uint64_t;

    Sm(Simulator& sim, const DeviceConfig& cfg, int id);

    Sm(const Sm&) = delete;
    Sm& operator=(const Sm&) = delete;

    /** Index of this SM on its device. */
    int id() const { return id_; }

    /** @name Residency accounting @{ */

    /** True when a block of the given shape can become resident. */
    bool canFit(const ResourceUsage& res, int threadsPerBlock) const;

    /** Make one block of kernel @p kernelId resident. */
    void occupy(const ResourceUsage& res, int threadsPerBlock,
                int kernelId);

    /** Remove one resident block of kernel @p kernelId. */
    void release(const ResourceUsage& res, int threadsPerBlock,
                 int kernelId);

    /** Number of blocks currently resident. */
    int residentBlocks() const { return blocks_; }

    /** Number of resident blocks belonging to kernel @p kernelId. */
    int residentBlocksOf(int kernelId) const;

    /** True when any block of @p kernelId is resident. */
    bool hasResident(int kernelId) const;

    /** Currently used registers. */
    int usedRegs() const { return regs_; }

    /** @} */

    /** @name Execution @{ */

    /**
     * Start executing @p work under processor sharing; @p onDone fires
     * when the work retires. @p kernelId attributes the work to a
     * resident kernel so the instruction-cache pressure model can
     * count only actively executing code.
     */
    ExecId beginWork(const WorkSpec& work, int kernelId,
                     EventFn onDone);

    /** @} */

    /** @name Fault modeling @{ */

    /**
     * Take the SM offline: canFit() refuses new blocks and all
     * in-flight executions are dropped without firing their
     * completion callbacks (the device evicts the owning blocks).
     * @return the number of executions aborted.
     */
    int setOffline();

    /** True once setOffline() has been called. */
    bool offline() const { return offline_; }

    /**
     * Degrade issue/memory throughput to @p factor of nominal
     * (0 < factor <= 1). Progress already made is retained; rates
     * recompute from now on.
     */
    void setThrottle(double factor);

    /** Current throughput multiplier (1.0 = healthy). */
    double throttle() const { return throttle_; }

    /**
     * Current total issue rate (warp insts/cycle) across resident
     * executions; exposed for tests of the sharing model.
     */
    double currentTotalRate() const;

    /** @} */

    /** Run statistics. */
    const SmStats& stats() const { return stats_; }

    /** Attach the run tracer (null detaches; never owned). Completed
     *  executions record ExecSpan complete events on this SM's track. */
    void setTracer(Tracer* t) { tracer_ = t; }

    /** Override the trace track this SM records on (defaults to the
     *  SM id; device groups offset it to keep tracks disjoint). */
    void setTraceTrack(int track) { traceTrack_ = track; }

  private:
    struct Exec
    {
        WorkSpec work;
        double remaining;
        double rate = 0.0;
        /** Demand (warps x per-warp rate); fixed per execution. */
        double demand = 0.0;
        /** Fraction of issued demand that reaches DRAM; fixed. */
        double dramFrac = 0.0;
        /** Start time (trace span anchor). */
        Tick start = 0.0;
        ExecId id = 0;
        int kernelId = -1;
        EventFn onDone;
    };

    /** Retire elapsed progress since the last update. */
    void advance();

    /** Recompute rates and reschedule the next completion event. */
    void reschedule();

    /** Issue-rate divisor from resident code footprint. */
    double icacheFactor() const;

    Simulator& sim_;
    const DeviceConfig& cfg_;
    int id_;

    int blocks_ = 0;
    int threads_ = 0;
    int regs_ = 0;
    int smem_ = 0;

    /** kernelId -> (resident block count, code bytes). */
    std::map<int, std::pair<int, int>> kernels_;

    /** In-flight executions, in start order (stable; determinism). */
    std::vector<Exec> execs_;
    /** Scratch for completion collection; reused to avoid allocs. */
    std::vector<EventFn> doneScratch_;
    /** Scratch for icacheFactor's kernel dedup; reused. */
    mutable std::vector<int> icacheScratch_;
    ExecId nextExecId_ = 1;
    Tick lastUpdate_ = 0.0;
    EventHandle completion_;
    bool offline_ = false;
    double throttle_ = 1.0;
    Tracer* tracer_ = nullptr;
    /** Trace track; -1 falls back to the SM id. */
    int traceTrack_ = -1;

    SmStats stats_;
};

} // namespace vp

#endif // VP_GPU_SM_HH
