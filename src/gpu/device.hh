/**
 * @file
 * The simulated GPU: SM array, hardware block dispatcher, streams, and
 * device-level statistics.
 */

#ifndef VP_GPU_DEVICE_HH
#define VP_GPU_DEVICE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "gpu/device_config.hh"
#include "gpu/kernel.hh"
#include "gpu/sm.hh"
#include "gpu/stream.hh"
#include "sim/simulator.hh"

namespace vp {

class BlockContext;
class FaultInjector;

/** Device-level counters for a run. */
struct DeviceStats
{
    std::uint64_t kernelLaunches = 0;
    std::uint64_t blocksDispatched = 0;
    /** Peak number of simultaneously resident blocks device-wide. */
    int peakResidentBlocks = 0;
    /** SMs taken offline by fault injection. */
    int smsFailed = 0;
    /** SMs with degraded throughput from fault injection. */
    int smsDegraded = 0;
    /** Resident blocks evicted by SM failures. */
    int blocksEvicted = 0;
    /** Kernel launches delayed by fault injection. */
    std::uint64_t launchDelays = 0;
};

/**
 * A simulated GPU.
 *
 * The hardware block dispatcher places pending blocks of running
 * kernels onto SMs round-robin whenever resources free up, respecting
 * per-kernel SM placement restrictions. Kernels in one stream run in
 * order; different streams run concurrently.
 */
class Device
{
  public:
    Device(Simulator& sim, DeviceConfig cfg);

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    /** The architecture/cost parameters of this device. */
    const DeviceConfig& config() const { return cfg_; }

    /** The driving simulator. */
    Simulator& sim() { return sim_; }

    /** Number of SMs. */
    int numSms() const { return static_cast<int>(sms_.size()); }

    /** SM by index. */
    Sm& sm(int i);

    /** Create a new stream. */
    Stream* createStream();

    /** The default (id 0) stream. */
    Stream* defaultStream() { return streams_.front().get(); }

    /**
     * Enqueue a kernel on a stream (device side; host-side launch
     * overhead is modeled by Host).
     */
    void launch(Stream* stream, std::shared_ptr<Kernel> kernel);

    /** Invoke @p fn once @p stream has fully drained. */
    void whenStreamIdle(Stream* stream, std::function<void()> fn);

    /** Invoke @p fn once every stream has fully drained. */
    void whenDeviceIdle(std::function<void()> fn);

    /** True when no kernel is running or queued anywhere. */
    bool idle() const;

    /** Number of blocks currently resident across all SMs. */
    int residentBlocks() const;

    /** @name Fault injection & degradation @{ */

    /**
     * Attach the run's fault injector (launch-delay decisions).
     * Null detaches; the device never owns the injector.
     */
    void setFaultInjector(FaultInjector* injector)
    {
        injector_ = injector;
    }

    /**
     * Hook fired for every resident block evicted by an SM failure,
     * before its resources are released. The runtime uses it to
     * recover the block's in-flight work items.
     */
    void setBlockAbortHook(std::function<void(BlockContext&)> fn)
    {
        blockAbortHook_ = std::move(fn);
    }

    /** Hook fired after an SM failure has been fully processed. */
    void setSmFailedHook(std::function<void(int)> fn)
    {
        smFailedHook_ = std::move(fn);
    }

    /**
     * Attach the run tracer to the device and all SMs (null
     * detaches; never owned). Records kernel launches/spans, block
     * residency counters and SM fail/degrade instants.
     */
    void setTracer(Tracer* t);

    /**
     * Offset the trace tracks this device (and its SMs/streams)
     * records on, so the devices of a group render on disjoint
     * timeline rows. Call after setTracer.
     */
    void setTraceTrackBase(int smBase, int streamBase);

    /**
     * Kill an SM mid-run: refuse new blocks, drop its in-flight
     * executions, evict its resident blocks (firing the abort hook
     * per block), and force-complete kernels whose entire allowed SM
     * set is now offline so their streams do not wedge. Remaining
     * grid blocks of still-placeable kernels re-dispatch onto
     * surviving SMs.
     */
    void failSm(int smId);

    /**
     * Kill the whole device: every SM goes offline before any block
     * is evicted, so the abort hooks observe an already-dead device
     * and nothing (not even the SM-failed relaunch hook, which is
     * deliberately not fired) can re-place work here. Resident
     * blocks are evicted with the abort hook per block, stranded
     * kernels are force-completed, and later stream launches strand
     * harmlessly. Idempotent: a dead device stays dead.
     */
    void failDevice();

    /** Degrade an SM's throughput to @p factor of nominal. */
    void degradeSm(int smId, double factor);

    /** Number of SMs still accepting work. */
    int numOnlineSms() const;

    /** @} */

    /** Run counters. */
    const DeviceStats& stats() const { return stats_; }

  private:
    friend class BlockContext;

    /** Start the next kernel of a stream if the stream is free. */
    void streamAdvance(Stream* stream);

    /** Device-side enqueue after any injected launch delay. */
    void doLaunch(Stream* stream, std::shared_ptr<Kernel> kernel);

    /**
     * Place as many pending blocks on SMs as will fit: SMs round-robin
     * from rrSm_, on each the first kernel in start order that is
     * allowed there and fits.
     */
    void tryDispatch();

    /** Schedule a dispatch pass (coalesced). */
    void scheduleDispatch();

    /** Force-complete active kernels with undispatched blocks whose
     *  allowed SMs are all offline, so their streams do not hang. */
    void retireStrandedKernels();

    /** Called by BlockContext::exit(). */
    void blockExited(BlockContext& ctx);

    /** Fire kernel completion, advance its stream. */
    void kernelCompleted(const std::shared_ptr<Kernel>& kernel);

    Simulator& sim_;
    DeviceConfig cfg_;
    std::vector<std::unique_ptr<Sm>> sms_;
    std::vector<std::unique_ptr<Stream>> streams_;

    /** Started (stream head) kernels by kernel id; reset once a
     *  kernel completes. */
    std::vector<std::shared_ptr<Kernel>> live_;
    /**
     * Started kernels with blocks left to place, grouped by footprint
     * (block size, registers and shared memory per block: whatever
     * Sm::canFit reads), each group in start order. A group outlives
     * its last kernel.
     */
    struct Placing
    {
        std::array<int, 3> footprint;
        /** (start sequence, kernel). */
        std::vector<std::pair<std::uint64_t, Kernel*>> kernels;
    };
    std::vector<Placing> placing_;
    /** Start sequence of the next kernel to start. */
    std::uint64_t nextStart_ = 0;

    /** Drop @p k from placing_ (no blocks left to place). */
    void placed(Kernel* k);
    /** Stream owning each active kernel, by kernel id. */
    std::vector<Stream*> kernelStream_;
    /** Live block contexts, freed on kernel completion. */
    std::vector<std::unique_ptr<BlockContext>> blocks_;

    std::vector<std::function<void()>> deviceIdleCallbacks_;

    FaultInjector* injector_ = nullptr;
    std::function<void(BlockContext&)> blockAbortHook_;
    std::function<void(int)> smFailedHook_;
    Tracer* tracer_ = nullptr;
    /** Added to SM-track / stream-track trace ids (device groups). */
    int smTrackBase_ = 0;
    int streamTrackBase_ = 0;

    /** Record a ResidentBlocks counter sample for SM @p smId. */
    void traceResidency(int smId);

    int nextKernelId_ = 0;
    int rrSm_ = 0;
    bool dispatchScheduled_ = false;
    DeviceStats stats_;
};

} // namespace vp

#endif // VP_GPU_DEVICE_HH
