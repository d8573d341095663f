/**
 * @file
 * The VersaPipe runtime: runners translate a PipelineConfig into
 * kernels, streams, SM bindings and block programs on the simulated
 * device, implementing the execution models of sections 4-5.
 *
 *  - GroupsRunner: RTC / Megakernel / coarse / fine / hybrid via
 *    persistent blocks, SM mapping and block mapping (Fig. 8).
 *  - KbkRunner: host-sequenced kernel-by-kernel, optionally with
 *    per-flow streams (Fig. 3b / Fig. 13).
 *  - DpRunner: CUDA dynamic-parallelism comparison (sec 8.4).
 */

#ifndef VP_CORE_RUNTIME_HH
#define VP_CORE_RUNTIME_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive.hh"
#include "core/model_config.hh"
#include "core/pipeline.hh"
#include "core/recovery.hh"
#include "core/run_result.hh"
#include "core/shard.hh"
#include "core/stage.hh"
#include "gpu/block.hh"
#include "gpu/host.hh"
#include "obs/obs.hh"
#include "queueing/pending_counter.hh"

namespace vp {

class RunnerBase;
class FaultInjector;

/**
 * Wiring of one runner into a multi-device shard: its position in
 * the group, the shared termination counter, and callbacks into the
 * group coordinator for remote-work queries and cross-device item
 * forwarding. Null (the default) runs single-device exactly as
 * before — every shard hook is behind a null check.
 */
struct ShardContext
{
    /** This runner's device index within the group. */
    int deviceIndex = 0;
    /** Devices in the group. */
    int numDevices = 1;
    /** First global trace track of this device's SMs. */
    int smTrackBase = 0;
    /** Stage placement over the group; owned by the caller. */
    const ShardPlan* plan = nullptr;
    /** Group-wide outstanding-work counter; owned by the caller. */
    PendingCounter* sharedPending = nullptr;
    /**
     * True when another device (or an in-flight transfer) may still
     * generate work for any stage in the mask. Consulted by block
     * exit decisions so a device does not retire its blocks while a
     * remote producer is still running.
     */
    std::function<bool(StageMask)> remoteWork;
    /**
     * Forward one item of a pinned stage toward its home device:
     * (stage, payload bytes, provenance id, deliver closure). The
     * coordinator pays the interconnect cost and delivers at arrival
     * time; the id (0 when untracked) lets it record the transfer on
     * the item's provenance lineage.
     */
    std::function<void(int, int, std::uint64_t,
                       std::function<void(QueueBase&)>)>
        forward;
    /**
     * Credit probe for bounded stages pinned remotely: true when the
     * stage's home queue is out of credit (home depth + in-flight
     * transfers >= home capacity), so producers on this device must
     * backpressure exactly like the home device's own producers.
     */
    std::function<bool(int)> remoteFull;
};

/**
 * Optional fault-injection/recovery wiring handed to a runner. Both
 * pointers may be null (the default): the runner then takes the
 * uninstrumented hot path and behaves exactly as before.
 */
struct FaultContext
{
    /** Fault decision oracle; owned by the caller (Engine). */
    FaultInjector* injector = nullptr;
    /** Retry/backoff policy; owned by the caller. */
    const RecoveryConfig* recovery = nullptr;
    /** Observability bundle (tracer/metrics/histograms); owned by
     *  the caller. Null runs fully uninstrumented. */
    ObsData* obs = nullptr;
    /** Multi-device shard wiring; null runs single-device. */
    const ShardContext* shard = nullptr;
};

/** One stage's input queues (per execution flow). */
using QueueSet = std::vector<std::unique_ptr<QueueBase>>;

/**
 * Handed to AppDriver::seed to push initial data items into stage
 * input queues (the paper's VersaPipe::insertIntoQueue).
 */
class Seeder
{
  public:
    /** Insert @p items into the input queue of stage @p S. */
    template <typename S>
    void
    insert(std::vector<typename S::DataItemType> items)
    {
        using T = typename S::DataItemType;
        int idx = pipe_->indexOf<S>();
        int n = static_cast<int>(items.size());
        if (route_) {
            // Sharded seeding: the group coordinator routes each
            // item to a device queue by (stage, ordinal).
            for (auto& it : items) {
                QueueBase& q = route_(idx, ordinal_++);
                if (prov_)
                    q.stampNextPushId(prov_->mintSeed());
                typedQueue<T>(q).push(std::move(it));
            }
        } else {
            auto& q = typedQueue<T>(*(*queues_)[idx]);
            for (auto& it : items) {
                if (prov_)
                    q.stampNextPushId(prov_->mintSeed());
                q.push(std::move(it));
            }
        }
        noteSeeded_(idx, n);
    }

    /** Single-item convenience overload. */
    template <typename S>
    void
    insert(typename S::DataItemType item)
    {
        std::vector<typename S::DataItemType> v;
        v.push_back(std::move(item));
        insert<S>(std::move(v));
    }

  private:
    friend class RunnerBase;
    friend class GroupCoordinator;
    Pipeline* pipe_ = nullptr;
    QueueSet* queues_ = nullptr;
    std::function<void(int, int)> noteSeeded_;
    /** Per-item device routing for sharded seeding (else null). */
    std::function<QueueBase&(int, int)> route_;
    int ordinal_ = 0;
    /** Stamps each seed with a fresh provenance id when armed. */
    ProvenanceTracker* prov_ = nullptr;
};

/**
 * An application the engine can run: owns the pipeline, seeds input,
 * and verifies output against a reference implementation.
 */
class AppDriver
{
  public:
    virtual ~AppDriver() = default;

    /** Application name. */
    virtual std::string name() const = 0;

    /** The stage graph. */
    virtual Pipeline& pipeline() = 0;

    /** Reset application state before a run. */
    virtual void reset() = 0;

    /**
     * Number of independent input flows (e.g., images). Flows matter
     * to the KBK runners: plain KBK processes flows sequentially (the
     * original implementations), KbkStream overlaps them in streams.
     */
    virtual int flowCount() const { return 1; }

    /** Seed the initial items of flow @p flow. */
    virtual void seedFlow(Seeder& seeder, int flow) = 0;

    /** Bytes of input copied host-to-device before the first kernel. */
    virtual double inputBytes() const { return 0.0; }

    /** Check results against the reference; true when correct. */
    virtual bool verify() { return true; }
};

/** Shared machinery of all runners. */
class RunnerBase
{
  public:
    RunnerBase(Simulator& sim, Device& dev, Host& host, Pipeline& pipe,
               const PipelineConfig& cfg, FaultContext fc = {});

    virtual ~RunnerBase() = default;

    /** Seed input and launch the configured execution. */
    virtual void start(AppDriver& driver) = 0;

    /** Gather statistics after the simulation has drained. */
    RunResult collect();

    /** Outstanding-work counter (the group's when sharded). */
    PendingCounter& pending() { return *pendingPtr_; }

    /** Primary input queue of stage @p s. */
    QueueBase& queue(int s) { return *queues_[s]; }

    /**
     * Queue that cross-device deliveries and coordinator seeds for
     * stage @p stage should land in. @p hint spreads deliveries over
     * queue shards under distributed queues (GroupsRunner override).
     */
    virtual QueueBase&
    deliveryQueue(int stage, std::uint64_t hint)
    {
        (void)hint;
        return *queues_[stage];
    }

    /**
     * True when this runner holds work for any stage in @p relevant:
     * queued items, in-flight batches, or buffered retries. The
     * group coordinator queries it across devices to decide whether
     * a remote device may still produce work.
     */
    bool localWork(StageMask relevant) const;

    /**
     * Monotonic heartbeat sampled by the engine's watchdog between
     * run slices: total queue traffic (pushes + pops across every
     * queue set) plus dead-lettered items. Any batch fetch, output
     * commit, redelivery or dead-letter moves it; a wedged pipeline
     * — every block parked in commit-wait polling full queues — does
     * not. Computed from statistics both batch paths already keep,
     * so the heartbeat costs the hot path nothing.
     */
    std::uint64_t drainProgress() const;

    /**
     * Multi-line snapshot of where work is stuck: per-stage queue
     * depths/capacities, in-flight and buffered counts, dead
     * letters, and the per-SM resident-block map.
     */
    std::string diagnoseStall() const;

    /** Fault/recovery counters accumulated so far. */
    const FaultRecoveryStats& faultStats() const { return faultStats_; }

    /**
     * Register this runner's live-state probes (per-stage queue
     * depths, resident blocks, occupancy, pending work, in-flight
     * retries) on the run's sampler. Called by the engine once,
     * before the run starts.
     */
    void registerProbes(Sampler& sampler);

    /** Items currently queued for stage @p s (all queue sets). */
    std::size_t queuedFor(int s) const { return totalQueued(s); }

    /** @name Device-failure failover (group coordinator hooks) @{ */

    /**
     * This device adopted stage @p s from a dead peer: flip every
     * queue slot of the stage (remote stubs) to local buffering and
     * restore the stage's configured capacity (@p capacity, 0 =
     * unbounded).
     */
    void takeOverStage(int s, std::size_t capacity);

    /**
     * Drain every queue slot of stage @p s into @p dst (the new
     * home's delivery queue). Called on a dead device's runner at
     * kill time. @return items moved.
     */
    std::size_t evacuateStage(int s, QueueBase& dst);

    /**
     * Buffer one re-routed in-flight delivery for @p stage through
     * this runner's recovery manager: the item waits out one backoff
     * (counting as future work, so blocks keep polling) and then
     * lands in this device's delivery queue. @p hint spreads
     * deliveries over queue shards like a normal delivery.
     */
    void redeliverForeign(int stage, std::uint64_t hint,
                          std::function<void(QueueBase&)> deliver);

    /**
     * Install the redirect consulted when this runner's buffered
     * redeliveries fire; see RecoveryManager::setRedirect. The
     * coordinator returns the current live queue for a stage once
     * this device is dead, null while it is alive.
     */
    void setRecoveryRedirect(std::function<QueueBase*(int)> fn);

    /**
     * Launch kernels for stages this device adopted from a dead
     * peer. Default no-op: only GroupsRunner (the only sharded
     * runner) builds and launches the adopted groups' specs.
     */
    virtual void adoptStages(const std::vector<int>& stages);

    /** @} */

    /** @name Serving (continuous request ingest) @{ */

    /**
     * Seeder for serving-mode epoch injection: pushes land in this
     * runner's queues and count on the pending counter exactly like
     * initial seeding, and each item is stamped with a fresh
     * provenance id when the run tracks provenance. The caller keeps
     * the seeder alive across epochs.
     */
    Seeder serveSeeder();

    /**
     * Serving-mode wake-up after epoch seeding: relaunch kernels for
     * stage groups whose persistent blocks retired while the
     * pipeline sat idle between request bursts. Default no-op — only
     * GroupsRunner serves.
     */
    virtual void serveWake() {}

    /** @} */

    /**
     * Arm the online load-balance controller. @return true when this
     * runner has an adjustable block-to-stage partition (a fine
     * group of >= 2 stages under GroupsRunner); the engine then
     * drives adaptEpoch() at every controller epoch. The base
     * implementation declines — only GroupsRunner overrides it.
     */
    virtual bool armAdaptive(const AdaptiveConfig&) { return false; }

    /** One controller epoch: sample loads, maybe migrate a block. */
    virtual void adaptEpoch() {}

  protected:
    /** Create one queue per stage into @p qs. */
    void makeQueues(QueueSet& qs);

    /** Seed every flow of @p driver into @p qs. */
    void seedAll(AppDriver& driver, QueueSet& qs);

    /** Seed one flow of @p driver into @p qs. */
    void seedFlow(AppDriver& driver, QueueSet& qs, int flow);

    /**
     * True when stage @p s might still receive work: itself or any
     * transitive producer has queued items or in-flight tasks.
     */
    bool futureWorkPossible(int s) const;

    /** futureWorkPossible over a set of stages. */
    bool anyFutureWork(const std::vector<int>& stages) const;

    /**
     * Choose the next stage to serve among @p stages (those with a
     * non-empty queue in @p qs), honoring the configured policy.
     * @return stage index or -1 when all queues are empty.
     */
    int pickStage(const QueueSet& qs,
                  const std::vector<int>& stages) const;

    /**
     * Run one batch of stage @p s on block @p ctx: pop (queue cost),
     * execute (processor sharing), push (queue cost), commit outputs,
     * then invoke @p next. @p maxItems bounds the batch (-1 = the
     * block's natural capacity). Outputs commit into @p pushInto
     * when given (distributed queues push to the block's home
     * shard), otherwise back into @p qs.
     */
    void processBatch(BlockContext& ctx, QueueSet& qs, int s,
                      StageMask inlineMask, int maxItems,
                      EventFn next, QueueSet* pushInto = nullptr);

    /**
     * Fault-instrumented processBatch: consults the injector for
     * fetch faults and slowdowns, routes transient failures through
     * the recovery manager, applies push drop/corruption at commit,
     * and backpressures on full bounded queues. Selected once per
     * run; the plain path never pays for any of it.
     */
    void processBatchFI(BlockContext& ctx, QueueSet& qs, int s,
                        StageMask inlineMask, int maxItems,
                        EventFn next, QueueSet* pushInto = nullptr);

    /**
     * Device hook: @p ctx was evicted by an SM failure mid-batch.
     * Replays or dead-letters its in-flight items, then calls
     * onBlockAborted for subclass bookkeeping.
     */
    void blockAborted(BlockContext& ctx);

    /** Device hook: SM @p sm went offline (after evictions). */
    void smFailed(int sm);

    /** Subclass bookkeeping for an evicted block. */
    virtual void onBlockAborted(BlockContext&) {}

    /** Subclass re-provisioning after an SM failure. */
    virtual void onSmFailed(int) {}

    /** True when the fault-instrumented batch path is active. */
    bool instrumented() const { return instrumentBatches_; }

    /** Tasks a block of stage @p s processes per fetch. */
    int batchCapacity(int s) const;

    /** Block size of stage @p s in its own kernel. */
    int stageBlockThreads(int s) const;

    /** True when a producer of @p s has blocks resident on SM @p sm. */
    bool producerResidentOn(int s, int sm) const;

    /** Register that kernel @p kernelId serves stage @p s. */
    void bindStageKernel(int s, int kernelId);

    Simulator& sim_;
    Device& dev_;
    Host& host_;
    Pipeline& pipe_;
    const PipelineConfig& cfg_;

    QueueSet queues_;
    /** Additional queue sets (flow replicas) included in stats. */
    std::vector<QueueSet*> extraQueueSets_;
    PendingCounter pending_;
    /** Effective counter: &pending_, or the group's when sharded. */
    PendingCounter* pendingPtr_ = &pending_;
    /** Multi-device wiring; null on single-device runs. */
    const ShardContext* shard_ = nullptr;
    /** Global trace-track offset of this device's SMs/stages. */
    int trackBase_ = 0;
    std::vector<std::int64_t> inFlight_;
    std::vector<StageRunStats> stageStats_;
    std::vector<std::vector<int>> stageKernels_;

    std::uint64_t polls_ = 0;
    std::uint64_t retreats_ = 0;
    std::uint64_t refills_ = 0;
    std::uint64_t steals_ = 0;
    std::string configName_;

    /** @name Online load balancing @{ */

    /** True once armAdaptive accepted a controller. */
    bool adaptiveArmed_ = false;
    std::uint64_t adaptEpochs_ = 0;
    std::uint64_t adaptMoves_ = 0;

    /** @} */

    /** Items queued for stage @p s across all queue sets. */
    std::size_t totalQueued(int s) const;

    /** @name Fault injection / recovery @{ */

    /** Decision oracle; null when no fault plan is configured. */
    FaultInjector* injector_ = nullptr;
    /** Effective retry/backoff policy (defaults when none given). */
    RecoveryConfig recoveryCfg_;
    RecoveryManager recovery_;
    FaultRecoveryStats faultStats_;
    /** True when batches route through processBatchFI. */
    bool instrumentBatches_ = false;
    /** True when executed items are captured for SM-kill replay. */
    bool captureForReplay_ = false;

    /** A batch between fetch and commit, replayable on eviction. */
    struct InFlightBatch
    {
        int stage = 0;
        /** Queue to redeliver into (the one the batch popped). */
        QueueBase* q = nullptr;
        /** Pre-execution copies; empty for non-retryable stages. */
        std::function<void(QueueBase&)> capture;
        int items = 0;
        /** Provenance ids of the executed items (dead-lettered when
         *  a non-retryable abort destroys the batch). */
        std::vector<std::uint64_t> provIds;
    };
    std::map<BlockContext*, InFlightBatch> inFlightBatches_;

    /** @} */

    /** @name Observability @{ */

    /** The run's observability bundle; null when not observing. */
    ObsData* obs_ = nullptr;
    /** The run tracer; null when tracing is off. */
    Tracer* tracer_ = nullptr;
    /** The run's provenance tracker; null when not armed. */
    ProvenanceTracker* prov_ = nullptr;

    /** Record one finished stage batch (trace span + histogram). */
    void
    noteBatchDone(int s, int smId, Tick start, int items)
    {
        Tick dur = sim_.now() - start;
        if (tracer_)
            tracer_->span(TraceKind::StageBatch,
                          static_cast<std::int16_t>(trackBase_ + smId),
                          start, dur, s, items);
        if (obs_
            && static_cast<std::size_t>(s)
                   < obs_->stageBatchCycles.size())
            obs_->stageBatchCycles[static_cast<std::size_t>(s)].add(
                dur);
    }

    /** @} */
};

/** Persistent-block runner for Groups configurations. */
class GroupsRunner : public RunnerBase
{
  public:
    GroupsRunner(Simulator& sim, Device& dev, Host& host,
                 Pipeline& pipe, const PipelineConfig& cfg,
                 FaultContext fc = {});

    void start(AppDriver& driver) override;

    QueueBase& deliveryQueue(int stage, std::uint64_t hint) override;

    bool armAdaptive(const AdaptiveConfig& cfg) override;
    void adaptEpoch() override;

    void adoptStages(const std::vector<int>& stages) override;

    void serveWake() override;

  protected:
    void onBlockAborted(BlockContext& ctx) override;
    void onSmFailed(int sm) override;

  private:
    /** One kernel to launch (a group, or one stage of a fine group). */
    struct KernelSpec
    {
        std::string name;
        std::vector<int> stages;  //!< stages this kernel serves
        StageMask inlineMask = 0; //!< RTC groups: inlined stages
        ResourceUsage res;
        std::vector<int> sms;     //!< allowed SMs (empty = all)
        int blocksPerSm = 1;
        int threads = 256;        //!< block size of this kernel
        int groupIdx = 0;
        bool fine = false;        //!< one stage of a fine group
    };

    void buildSpecs();

    /** Build the specs of config group @p g (buildSpecs body). */
    void buildGroupSpecs(std::size_t g);

    void launchSpec(int specIdx, const std::vector<int>& sms,
                    bool isRefill);
    void blockMain(BlockContext& ctx, int specIdx);
    void blockLoop(BlockContext& ctx, int specIdx, Tick pollBackoff);
    void onKernelComplete();
    void maybeRefill();

    /** The queue set a block on SM @p smId works against. */
    QueueSet& homeQueues(int smId);

    /**
     * Find a queue set holding work for one of @p stages, starting
     * at SM @p smId's home shard and stealing from the others
     * (distributed queues). @return the chosen stage, or -1; sets
     * @p qs to the set it was found in.
     */
    int findWork(int smId, const std::vector<int>& stages,
                 QueueSet*& qs);

    std::vector<KernelSpec> specs_;
    /** Config groups whose specs exist here (home or adopted). */
    std::vector<char> builtGroups_;
    /** Per-SM queue shards when cfg.distributedQueues is set. */
    std::vector<std::unique_ptr<QueueSet>> shards_;
    /** (specIdx, smId) -> resident block count (block mapping). */
    std::map<std::pair<int, int>, int> blockCount_;
    /** Live block -> spec index, for eviction bookkeeping. */
    std::map<BlockContext*, int> blockSpec_;
    int liveKernels_ = 0;
    /** Live kernels per spec index (serving wake-up bookkeeping:
     *  only specs with no live kernel need a relaunch). */
    std::vector<int> specLiveKernels_;
    int refillBudget_ = 64;

    /** @name Online load balancing @{ */

    /** Controller, armed by the engine when a fine group exists. */
    std::unique_ptr<AdaptiveController> adaptCtl_;
    AdaptiveConfig adaptCfg_;
    /** Spec indices whose blocksPerSm the controller may adjust. */
    std::vector<int> adaptTargets_;
    /** Accumulated poll-wait cycles per spec (occupancy signal). */
    std::vector<double> adaptIdle_;
    /** adaptIdle_ snapshot at the previous controller epoch. */
    std::vector<double> adaptIdleLast_;

    /** Smoothed input depth of fine spec @p specIdx's stage. */
    double adaptDepth(int specIdx) const;

    /** @} */
};

/** Host-sequenced kernel-by-kernel runner (plus stream variant). */
class KbkRunner : public RunnerBase
{
  public:
    KbkRunner(Simulator& sim, Device& dev, Host& host, Pipeline& pipe,
              const PipelineConfig& cfg, FaultContext fc = {});

    ~KbkRunner() override;

    void start(AppDriver& driver) override;

  private:
    /** One independent flow being sequenced by the host. */
    struct Flow
    {
        int id = 0;
        Stream* stream = nullptr;
        QueueSet* queues = nullptr;
        bool active = false;
    };

    /**
     * One host launch unit: a single stage, or an RTC-fused chain
     * (the paper's "mixing of KBK and RTC" baseline for
     * Rasterization). Built from cfg.groups when present.
     */
    struct Unit
    {
        int entry;
        StageMask inlineMask = 0;
        ResourceUsage res;
        double hostBytesPerItem = 0.0;
    };

    void buildUnits();
    void startNextFlows();
    void flowPass(Flow& flow);
    void flowStage(Flow& flow, int unitIdx);
    void launchStageKernel(Flow& flow, int unitIdx,
                           std::function<void()> done);
    void flowFinished(Flow& flow);

    std::vector<Unit> units_;

    AppDriver* driver_ = nullptr;
    std::vector<Flow> flows_;
    std::vector<std::unique_ptr<QueueSet>> flowQueues_;
    int nextFlowToSeed_ = 0;
    int activeFlows_ = 0;
};

/** Dynamic-parallelism runner (sec 8.4). */
class DpRunner : public RunnerBase
{
  public:
    DpRunner(Simulator& sim, Device& dev, Host& host, Pipeline& pipe,
             const PipelineConfig& cfg, FaultContext fc = {});

    void start(AppDriver& driver) override;

  protected:
    void onSmFailed(int sm) override;

  private:
    /** Launch one sub-kernel popping @p items items of stage @p s. */
    void spawnKernel(int s, int items, bool fromDevice);

    /** Per-stage count of queued items already assigned a kernel. */
    std::vector<int> claimed_;
};

/** Instantiate the runner for a configuration. */
std::unique_ptr<RunnerBase> makeRunner(Simulator& sim, Device& dev,
                                       Host& host, Pipeline& pipe,
                                       const PipelineConfig& cfg,
                                       FaultContext fc = {});

} // namespace vp

#endif // VP_CORE_RUNTIME_HH
