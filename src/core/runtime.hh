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
 * Wiring of one runner into its run's device group: its position in
 * the group, the shared termination and join counters, and callbacks
 * into the group coordinator for remote-work queries and cross-device
 * item forwarding. Every run has a group (a plain run is the
 * one-device group of the engine's first device), and every runner
 * one context. The callbacks are set only in groups of two or more
 * devices.
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
    /** Group-wide join counters; owned by the caller. */
    JoinCounters* sharedJoins = nullptr;
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
 * The run wiring handed to a runner. Every pointer but `shard` may be
 * null (the default). With no injector, no batch takes a fault
 * branch; with no recovery policy, the defaults apply.
 */
struct FaultContext
{
    /** Fault decision oracle; owned by the caller (Engine). */
    FaultInjector* injector = nullptr;
    /** Retry/backoff policy; owned by the caller. */
    const RecoveryConfig* recovery = nullptr;
    /** Observability bundle (tracer/metrics/histograms); owned by
     *  the caller. Null records nothing. */
    ObsData* obs = nullptr;
    /** The runner's place in the run's device group (required);
     *  owned by the caller. */
    const ShardContext* shard = nullptr;
    /** Task graph the run records into as its payload executes;
     *  owned by the caller (core/task_graph.hh). */
    TaskGraph* capture = nullptr;
    /** Sealed task graph the run replays instead of the payload;
     *  owned by the caller. */
    const TaskGraph* replay = nullptr;
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
        for (auto& it : items) {
            QueueBase& q = route_(idx, ordinal_++);
            if (prov_)
                q.stampNextPushId(prov_->mintSeed());
            typedQueue<T>(q).push(std::move(it));
        }
        pending_->add(n);
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
    /** The run's outstanding-work counter; counts every seed. */
    PendingCounter* pending_ = nullptr;
    /** The queue of each item, by (stage, ordinal). */
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

    /**
     * True when every item's bytes identify its task: the same
     * (stage, item) always costs the same and enqueues the same
     * children, whatever the schedule, and no item executes twice.
     * The auto-tuner then captures the app's task graph once and
     * replays it for its candidates instead of the payload
     * (docs/MODEL.md, "Tuner replay"). Every stage must be keyable.
     */
    virtual bool keyedItems() const { return false; }
};

/** Shared machinery of all runners. */
class RunnerBase
{
  public:
    RunnerBase(Simulator& sim, Device& dev, Host& host, Pipeline& pipe,
               const PipelineConfig& cfg, FaultContext fc);

    virtual ~RunnerBase() = default;

    /**
     * Launch the configured execution. The engine has seeded a
     * Groups run already; KBK and DP runners seed their own flows.
     */
    virtual void start(AppDriver& driver) = 0;

    /** Gather statistics after the simulation has drained. */
    RunResult collect();

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
     * not. Computed from statistics the batch path already keeps,
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

    /** Seed one flow of @p driver into @p qs (KBK and DP). */
    void seedFlow(AppDriver& driver, QueueSet& qs, int flow);

    /**
     * The stages whose work can reach any of @p stages: each one and
     * its transitive producers. futureWork() takes this mask.
     */
    StageMask watchMask(const std::vector<int>& stages) const;

    /**
     * True when a stage of @p watch has queued items, in-flight tasks
     * or buffered retries here or, sharded, on another device (or an
     * item is on the interconnect). Over a watchMask() this says
     * whether those stages might still receive work. Both tests are
     * "any stage in the mask", so one call over a union of masks
     * answers the same as one call per mask.
     */
    bool futureWork(StageMask watch) const;

    /**
     * Choose the next stage to serve among @p stages (those with a
     * non-empty queue in @p qs), honoring the configured policy.
     * @return stage index or -1 when all queues are empty.
     */
    int pickStage(const QueueSet& qs,
                  const std::vector<int>& stages) const;

    /**
     * Run one batch of stage @p s on block @p ctx: pop (queue cost),
     * execute (processor sharing), cost the pushes, commit outputs,
     * then invoke @p next. @p maxItems bounds the batch (-1 = the
     * block's natural capacity). Outputs commit into @p pushInto
     * when given (distributed queues push to the block's home
     * shard), otherwise back into @p qs.
     *
     * Every runner and every run takes this one path; each fault
     * branch runs only when its condition holds. Fetch faults,
     * slowdowns and push faults come from the injector's plan: failed
     * items go to the recovery manager, and their detection (and that
     * of corrupted pushes) holds the block. Batches that an SM or
     * device kill can evict keep pre-execution copies for replay. The
     * commit waits, polling, while a bounded target queue is full.
     */
    void processBatch(BlockContext& ctx, QueueSet& qs, int s,
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
    /** The run's outstanding-work counter, shared by the group. */
    PendingCounter* pendingPtr_ = nullptr;
    /** The run's join arrivals (core/join.hh), shared likewise. */
    JoinCounters* joinsPtr_ = nullptr;
    /** The runner's place in the run's device group. */
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
    /**
     * True when the plan scripts SM or device kills, which evict
     * blocks mid-batch: batches then keep pre-execution copies for
     * replay, and runners track their blocks for eviction.
     */
    bool evictable_ = false;

    /** Task-graph capture / replay of the batch path (see
     *  FaultContext); null runs the payload only. */
    TaskGraph* graphCapture_ = nullptr;
    const TaskGraph* graphReplay_ = nullptr;

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

  private:
    /** A batch that has executed and waits to commit its outputs. */
    struct BatchCommit
    {
        BlockContext* block;
        /** Queue set the outputs commit into. */
        QueueSet* qs;
        int stage;
        /** Executed items, in flight until the commit. */
        int items;
        /** Fetch time of the batch. */
        Tick bstart;
        std::vector<StagedOutput> outputs;
        /** Provenance ids of the executed items. */
        std::vector<std::uint64_t> provIds;
        /** The block's continuation after the commit. */
        EventFn next;
    };

    /** After exec: cost the pushes, apply push faults, commit. */
    void finishBatch(BatchCommit c);

    /** Commit @p c unless a bounded target queue is full (then count
     *  a backpressure wait and return false). */
    bool tryCommit(BatchCommit& c);

    /** Hold the block for @p detect cycles (a corrupted push's
     *  detection) or, at 0, one poll interval; then retry the
     *  commit, polling while a target stays full. */
    void awaitCommit(std::unique_ptr<BatchCommit> c, Tick detect);
};

/**
 * Persistent-block runner for Groups configurations. A block whose
 * queues are empty parks its poll chain (BlockContext::park); the
 * runner counts the elided polls (PollSink) and wakes parked blocks
 * on the state each dispatch leaves: a push into a spec's queues
 * wakes its earliest parked poll, a spec whose watch mask drains or
 * whose budget the controller cut wakes all of them.
 */
class GroupsRunner : public RunnerBase, private PollSink
{
  public:
    GroupsRunner(Simulator& sim, Device& dev, Host& host,
                 Pipeline& pipe, const PipelineConfig& cfg,
                 FaultContext fc);

    ~GroupsRunner() override;

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
        StageMask watch = 0;      //!< watchMask(stages)
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

    /** PollSink: polls a parked block of spec @p tag elided. */
    void elidedPolls(int tag, std::uint64_t polls, double idle) override;

    /** Wake hook: re-establish every spec's wake order. */
    void settleWaiters();

    /** True when a queue findWork searches for @p spec holds items. */
    bool hasWork(const KernelSpec& spec) const;
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
    /** Resident blocks per (spec, SM), at specIdx * numSms + smId
     *  (block mapping); grows with specs_. */
    std::vector<int> blockCount_;

    /** Resident block count of spec @p specIdx on SM @p smId. */
    int&
    blocksOn(int specIdx, int smId)
    {
        return blockCount_[static_cast<std::size_t>(specIdx)
                               * static_cast<std::size_t>(dev_.numSms())
                           + static_cast<std::size_t>(smId)];
    }
    /** Parked blocks per spec index; grows with specs_. */
    std::vector<PollWaiters> waiters_;
    /** Specs whose budget the controller cut since the last wake
     *  hook: their parked blocks wake to retreat. */
    std::vector<char> budgetCut_;
    int wakeHook_ = -1;
    /** Live block -> spec index, for eviction bookkeeping (kept
     *  only when blocks are evictable). */
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
              const PipelineConfig& cfg, FaultContext fc);

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
             const PipelineConfig& cfg, FaultContext fc);

    void start(AppDriver& driver) override;

  protected:
    void onSmFailed(int sm) override;

  private:
    /** Launch one sub-kernel popping @p items items of stage @p s. */
    void spawnKernel(int s, int items, bool fromDevice);

    /** Per-stage count of queued items already assigned a kernel. */
    std::vector<int> claimed_;
};

/** Instantiate the runner for a configuration; @p fc.shard places
 *  it in its run's device group. */
std::unique_ptr<RunnerBase> makeRunner(Simulator& sim, Device& dev,
                                       Host& host, Pipeline& pipe,
                                       const PipelineConfig& cfg,
                                       FaultContext fc);

} // namespace vp

#endif // VP_CORE_RUNTIME_HH
