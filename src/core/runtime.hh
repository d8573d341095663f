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
 *
 * A GroupCoordinator is one run's device group: it owns a runner per
 * device and everything they share, routes items between them, runs
 * failover, and is what the Supervisor drives.
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
#include "gpu/device_group.hh"
#include "gpu/host.hh"
#include "obs/obs.hh"
#include "queueing/pending_counter.hh"

namespace vp {

class FaultInjector;
class GroupCoordinator;
struct FaultPlan;
struct LinkFaultEvent;

/**
 * The run wiring handed to a runner: its place in the run's device
 * group and the run's fault, recovery, observability and task-graph
 * settings, all owned by the run. `group` is required; every other
 * pointer may be null (the default). With no injector, no batch
 * takes a fault branch; with no recovery policy, the defaults apply.
 */
struct RunnerContext
{
    /** The run's device group (required). */
    GroupCoordinator* group = nullptr;
    /** This runner's device index within the group. */
    int device = 0;
    /** Fault decision oracle. */
    FaultInjector* injector = nullptr;
    /** Retry/backoff policy. */
    const RecoveryConfig* recovery = nullptr;
    /** Observability bundle (tracer/metrics/histograms); null
     *  records nothing. */
    ObsData* obs = nullptr;
    /** Task graph the run records into as its payload executes
     *  (core/task_graph.hh). */
    TaskGraph* capture = nullptr;
    /** Sealed task graph the run replays instead of the payload. */
    const TaskGraph* replay = nullptr;
};

/** One input queue per stage: one of a runner's queue sets. */
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
            int ordinal = ordinal_++;
            QueueBase& q = route_(idx, ordinal);
            if (prov_)
                q.stampNextPushId(prov_->mintSeed());
            if (capture_)
                q.stampNextPushTag(&capture_->newSeed(flow_, ordinal, idx));
            else if (replay_)
                q.stampNextPushTag(&replay_->seed(flow_, ordinal, idx));
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
    friend class GroupCoordinator;
    friend class KbkRunner;
    Pipeline* pipe_ = nullptr;
    /** The run's outstanding-work counter; counts every seed. */
    PendingCounter* pending_ = nullptr;
    /** The queue of each item, by (stage, ordinal). */
    std::function<QueueBase&(int, int)> route_;
    /** The flow being seeded, and the ordinal of its next item. */
    int flow_ = 0;
    int ordinal_ = 0;
    /** Stamps each seed with a fresh provenance id when armed. */
    ProvenanceTracker* prov_ = nullptr;
    /** The run's task graph (core/task_graph.hh): each seed gets a
     *  fresh record under capture, its recorded one under replay. */
    TaskGraph* capture_ = nullptr;
    const TaskGraph* replay_ = nullptr;
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
     * True when a task's cost and effects depend only on its lineage
     * (its seed's flow and ordinal, and the effects that led from
     * that seed to it), whatever the schedule. The auto-tuner then
     * captures the app's task graph once and replays it for its
     * candidates instead of the payload (docs/MODEL.md, "Tuner
     * replay").
     */
    virtual bool replayable() const { return false; }
};

/**
 * Shared machinery of all runners. A runner works against a list of
 * n alike queue sets, built once: n is 1 for Groups and DP runs, the
 * SM count under distributed queues, and the flow count under KBK.
 */
class RunnerBase
{
  public:
    RunnerBase(Simulator& sim, Device& dev, Host& host, Pipeline& pipe,
               const PipelineConfig& cfg, RunnerContext rc);

    virtual ~RunnerBase() = default;

    /**
     * Launch the configured execution. The group coordinator has
     * seeded Groups and DP runs already; KBK runners seed their own
     * flows, one at a time.
     */
    virtual void start(AppDriver& driver) = 0;

    /** Gather statistics after the simulation has drained. */
    RunResult collect();

    /**
     * Queue that cross-device deliveries and coordinator seeds for
     * stage @p stage should land in: its queue in set @p hint % n, so
     * a rolling hint spreads them over the sets.
     */
    QueueBase& deliveryQueue(int stage, std::uint64_t hint);

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

    /**
     * Register this runner's live-state probes (per-stage queue
     * depths, resident blocks, occupancy, pending work, in-flight
     * retries) on the run's sampler. Called by the engine once,
     * before the run starts.
     */
    void registerProbes(Sampler& sampler);

    /** Items currently queued for stage @p s (all queue sets). */
    std::size_t queuedFor(int s) const;

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
     * deliveries over queue sets like a normal delivery.
     */
    void redeliverForeign(int stage, std::uint64_t hint,
                          std::function<void(QueueBase&)> deliver);

    /**
     * Launch kernels for stages this device adopted from a dead
     * peer. Default no-op: only GroupsRunner (the only sharded
     * runner) builds and launches the adopted groups' specs.
     */
    virtual void adoptStages(const std::vector<int>&) {}

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
    /** Build the runner's @p n queue sets; called once, n >= 1. */
    void makeQueueSets(int n);

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
     * when given (distributed queues push to the block's home set),
     * otherwise back into @p qs.
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

    /** Subclass bookkeeping for an evicted block. */
    virtual void onBlockAborted(BlockContext&) {}

    /** Device hook: SM @p sm went offline (after evictions); the
     *  subclass re-provisions. */
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

    /** The queue sets, alike (see the class comment); every loop
     *  over them runs from set 0. */
    std::vector<QueueSet> queueSets_;
    /** The run's device group and this runner's index in it. */
    GroupCoordinator* group_;
    int device_;
    /** The run's outstanding-work counter, shared by the group. */
    PendingCounter* pendingPtr_ = nullptr;
    /** The run's join arrivals (core/join.hh), shared likewise. */
    JoinCounters* joinsPtr_ = nullptr;
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
     *  RunnerContext); null runs the payload only. */
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
    /** "d<i>/" in a group of two or more devices, else empty: the
     *  prefix of this device's queue trace names and sampler series. */
    std::string deviceTag() const;

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
 * Persistent-block runner for Groups configurations. A block on SM i
 * works against queue set i % n and, when that runs dry, steals from
 * the other n - 1 (n is 1 unless distributed queues give each SM its
 * own set). A block whose queues are empty parks its poll chain
 * (BlockContext::park); the runner counts the elided polls
 * (PollSink) and wakes parked blocks on the state each dispatch
 * leaves: a push into a spec's queues wakes its earliest parked
 * poll, a spec whose watch mask drains or whose budget the
 * controller cut wakes all of them.
 */
class GroupsRunner : public RunnerBase, private PollSink
{
  public:
    GroupsRunner(Simulator& sim, Device& dev, Host& host,
                 Pipeline& pipe, const PipelineConfig& cfg,
                 RunnerContext rc);

    ~GroupsRunner() override;

    void start(AppDriver& driver) override;

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
     * at SM @p smId's home set and stealing from the others, nearest
     * first. @return the chosen stage, or -1; sets @p qs to the set
     * it was found in.
     */
    int findWork(int smId, const std::vector<int>& stages,
                 QueueSet*& qs);

    std::vector<KernelSpec> specs_;
    /** Config groups whose specs exist here (home or adopted). */
    std::vector<char> builtGroups_;
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

/**
 * Host-sequenced kernel-by-kernel runner (plus stream variant). Flow
 * f works against queue set f.
 */
class KbkRunner : public RunnerBase
{
  public:
    KbkRunner(Simulator& sim, Device& dev, Host& host, Pipeline& pipe,
              const PipelineConfig& cfg, RunnerContext rc);

    ~KbkRunner() override;

    void start(AppDriver& driver) override;

  private:
    /** One independent flow being sequenced by the host. */
    struct Flow
    {
        int id = 0;
        Stream* stream = nullptr;
        bool active = false;
        /** Items the flow's running kernel has yet to hand out to
         *  its blocks (a flow runs one kernel at a time). */
        int remaining = 0;
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
    /** Seed flow @p flow of the driver into its own queue set. */
    void seedFlow(int flow);
    void startNextFlows();
    void flowPass(Flow& flow);
    void flowStage(Flow& flow, int unitIdx);
    void launchStageKernel(Flow& flow, int unitIdx,
                           std::function<void()> done);

    /** One block of a unit's kernel: batches of the flow's items
     *  until the kernel has handed them all out. */
    void blockLoop(BlockContext& ctx, Flow& flow, int unitIdx);

    void flowFinished(Flow& flow);

    std::vector<Unit> units_;

    AppDriver* driver_ = nullptr;
    std::vector<Flow> flows_;
    int nextFlowToSeed_ = 0;
    int activeFlows_ = 0;
};

/** Dynamic-parallelism runner (sec 8.4). */
class DpRunner : public RunnerBase
{
  public:
    DpRunner(Simulator& sim, Device& dev, Host& host, Pipeline& pipe,
             const PipelineConfig& cfg, RunnerContext rc);

    void start(AppDriver& driver) override;

  protected:
    void onSmFailed(int sm) override;

  private:
    /** Launch one sub-kernel popping @p items items of stage @p s. */
    void spawnKernel(int s, int items, bool fromDevice);

    /** Per-stage count of queued items already assigned a kernel. */
    std::vector<int> claimed_;
};

/**
 * One run's device group, built once per run by Engine::runGroup (a
 * plain run is the one-device group of the engine's first device
 * under a replicate-all plan). It owns a runner per device and all
 * they share: one PendingCounter over queued, in-flight and
 * in-transit work on every device (producers add() outputs before
 * they sub() inputs, so the run drains exactly when it does), the
 * join counters, per-stage in-transit credit, the delivery sequence,
 * the failover state and the scheduled fault events.
 *
 * Failover has no separate path: with no device or link event every
 * device stays alive, no home moves and every path is usable, so
 * each member computes what the failure-free run needs. The
 * Supervisor drives the run through progress, diagnose, adaptEpoch,
 * serveWake and collect.
 */
class GroupCoordinator
{
  public:
    /**
     * One runner per device of @p group, wired by @p rc (its group
     * and device are set here). @p sharded: the run came through
     * runSharded, so collect() merges the devices' statistics.
     */
    GroupCoordinator(Simulator& sim, DeviceGroup& group, Pipeline& pipe,
                     const PipelineConfig& cfg, const ShardPlan& plan,
                     bool sharded, RunnerContext rc);

    GroupCoordinator(const GroupCoordinator&) = delete;
    GroupCoordinator& operator=(const GroupCoordinator&) = delete;

    /** @name Set-up @{ */

    /** Schedule @p plan's SM, device and link events; those still
     *  outstanding are cancelled when the group drains. */
    void scheduleFaults(const FaultPlan& plan);
    /** Register the runners' probes, and sharded the interconnect's
     *  in-flight count, on @p sampler. */
    void registerProbes(Sampler& sampler);
    /** Arm @p ac on every runner; true when any of them adapts. */
    bool armAdaptive(const AdaptiveConfig& ac);
    /** Seed every flow of @p driver through seeder() (except under
     *  KBK, whose host sequencing seeds flow by flow), then start
     *  the runners. */
    void start(AppDriver& driver);
    /**
     * A seeder routing each item by (stage, ordinal): a pinned stage
     * to its home device, a replicated one hashed over the group
     * (shardSeedDevice) — the only point where replicated work is
     * distributed. The ordinal rolls for as long as the seeder lives.
     */
    Seeder seeder();

    /** @} */

    /** @name Shared with the runners @{ */

    int size() const { return group_.size(); }
    int smTrackBase(int device) const { return group_.smTrackBase(device); }
    const ShardPlan& plan() const { return plan_; }
    PendingCounter& pending() { return pending_; }
    JoinCounters& joins() { return joins_; }

    /**
     * Forward one item of @p stage from device @p from to the
     * stage's home over the interconnect (@p bytes); @p deliver
     * lands it in a home delivery queue at arrival, stamped with
     * @p tag (null = untagged). @p provId (0 = untracked) records the
     * hop. Over a failed path it dead-letters.
     */
    void forward(int from, int stage, int bytes, std::uint64_t provId,
                 const void* tag, std::function<void(QueueBase&)> deliver);
    /** Credit probe of a bounded stage homed away from @p from: home
     *  depth plus in-flight transfers reach its capacity. A failed
     *  path never waits (its pushes dead-letter). */
    bool remoteFull(int from, int stage) const;
    /** True when another device holds work for a stage of
     *  @p relevant or a transfer is in flight: @p from's blocks
     *  then stay for a remote producer. */
    bool remoteWork(int from, StageMask relevant) const;
    /** Where a redelivery buffered on device @p device lands: null
     *  (its own queue) while the device lives, else the live target
     *  of @p stage. */
    QueueBase* redirect(int device, int stage);

    /** @} */

    /** @name Supervisor hooks @{ */

    /** Drain-progress heartbeat: the runners' queue traffic and dead
     *  letters plus interconnect deliveries. */
    std::uint64_t progress() const;
    /** Where work is stuck, for stall and timeout diagnostics. */
    std::string diagnose() const;
    void adaptEpoch();
    void serveWake();
    /** The run's statistics, failover counters included. */
    RunResult collect();

    /** @} */

  private:
    /** Home of @p stage (re-homed, else the plan's); -1 replicated. */
    int curHome(int stage) const;
    /** Landing device of @p stage: its home, or replicated the
     *  lowest-index survivor. */
    int liveTarget(int stage) const;
    /** A forwarded item reaches @p home, where its @p tag is
     *  stamped on it. */
    void arrive(int home, int stage, const void* tag,
                std::function<void(QueueBase&)> deliver);
    /** Device @p d dies: sever, evict, re-home, evacuate, adopt. */
    void killDevice(int d);
    /** A scripted link fails or degrades. */
    void linkEvent(const LinkFaultEvent& e);

    Simulator& sim_;
    DeviceGroup& group_;
    Interconnect& icx_;
    Pipeline& pipe_;
    const PipelineConfig& cfg_;
    const ShardPlan& plan_;
    bool sharded_;
    ObsData* obs_;
    Tracer* tracer_;
    ProvenanceTracker* prov_;
    /** The run's task graph, for the seeder. */
    TaskGraph* capture_;
    const TaskGraph* replay_;

    PendingCounter pending_;
    JoinCounters joins_;
    /** Per stage: transfers in flight to its home (the credit). */
    std::vector<std::int64_t> inTransit_;
    /** Rolls over deliveries to spread them across queue sets. */
    std::uint64_t deliverySeq_ = 0;

    /** Failover: per device alive, items evacuated off it and
     *  stages it adopted; per stage the re-homed device (-1 = the
     *  plan's) and items dead-lettered at failed links; the group's
     *  failover counters; the scheduled fault events. */
    std::vector<char> alive_;
    std::vector<std::uint64_t> evacuated_;
    std::vector<int> rehomedIn_;
    std::vector<int> homeOverride_;
    std::vector<std::uint64_t> linkDeadLettered_;
    FaultRecoveryStats failover_;
    std::vector<EventHandle> faultEvents_;

    /** Declared last: destroyed before the state they point at. */
    std::vector<std::unique_ptr<RunnerBase>> runners_;
};

/** Instantiate the runner for a configuration; @p rc places it in
 *  its run's device group. */
std::unique_ptr<RunnerBase> makeRunner(Simulator& sim, Device& dev,
                                       Host& host, Pipeline& pipe,
                                       const PipelineConfig& cfg,
                                       RunnerContext rc);

} // namespace vp

#endif // VP_CORE_RUNTIME_HH
