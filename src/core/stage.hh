/**
 * @file
 * The VersaPipe programming API: stage definitions and the execution
 * context device code uses to enqueue items to downstream stages.
 *
 * Mirrors the paper's API (Fig. 9): a stage subclasses Stage<T> (the
 * paper's BaseStage), declares its data-item type, the number of
 * threads per task, and an execute() that may call
 * ctx.enqueue<NextStage>(item). Because the "device" is a simulator,
 * a stage additionally declares its hardware footprint (resources)
 * and a cost() function giving per-item instruction counts that drive
 * the timing model; execute() performs the real computation.
 *
 * Siblings that must all finish before a continuation runs arrive at
 * a keyed join (core/join.hh) instead of counting down app state:
 *
 *     // Driver constructor: image i's bands join before histEq.
 *     grayJoin_ = pipe_.addJoin<std::int32_t>(
 *         "gray", [this](std::int32_t) { return bands_; },
 *         [](ExecContext& ctx, std::int32_t image) {
 *             ctx.enqueue<HistEqStage>(Item{image, 0});
 *         });
 *     // GrayStage::execute, after converting its band:
 *     ctx.arrive(app_.grayJoin_, item.image);
 *
 * The last arrival's task runs the continuation at its arrive().
 */

#ifndef VP_CORE_STAGE_HH
#define VP_CORE_STAGE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <typeindex>
#include <vector>

#include "common/error.hh"
#include "core/task_graph.hh"
#include "gpu/resources.hh"
#include "queueing/remote_queue.hh"
#include "queueing/work_queue.hh"

namespace vp {

class Pipeline;
class ExecContext;

/** Bitmask over stage indices (pipelines hold at most 32 stages). */
using StageMask = std::uint32_t;

/** Aggregate result of one block executing a batch of tasks. */
struct BatchResult
{
    /** Summed per-thread cost of the batch. */
    TaskCost total;
    /** Largest single-task instruction count (load imbalance bound). */
    double maxTaskInsts = 0.0;
    /** Tasks executed. */
    int items = 0;
};

/**
 * Fault wiring of one batch fetch, handed to runBatch by batches that
 * can fault or be evicted (null otherwise).
 *
 * In: the first `failItems` popped items fail transiently and skip
 * execution; `captureExecuted` asks for pre-execution copies of the
 * rest. Out: failed items within their retry budget are packaged into
 * `redeliver` (re-pushed by the recovery manager after backoff), the
 * others dead-letter; `capture` replays the executed items when an SM
 * failure evicts the block between execution and output commit.
 */
struct FaultBatch
{
    /** Popped items that fail transiently (the first ones). */
    int failItems = 0;
    /** Retry budget: a failed item already tried this often
     *  dead-letters instead. */
    std::uint32_t maxRetries = 0;
    /** Capture pre-execution copies of the executed items. */
    bool captureExecuted = false;

    /** Items that failed transiently and await redelivery. */
    int retried = 0;
    /** Items whose retry budget was exhausted. */
    int deadLettered = 0;
    /** Largest retry count among the retried items (backoff input). */
    std::uint32_t maxTries = 0;
    /**
     * Re-pushes the retried items into the stage's queue with their
     * retry counts incremented; empty when retried == 0.
     */
    std::function<void(QueueBase&)> redeliver;
    /**
     * Re-pushes the pre-execution copies of the executed items (same
     * contract as redeliver); empty unless captureExecuted.
     */
    std::function<void(QueueBase&)> capture;
    /** Provenance ids of the items that dead-lettered here. */
    std::vector<std::uint64_t> deadIds;
};

/** Type-erased base of all pipeline stages. */
class StageBase
{
  public:
    virtual ~StageBase() = default;

    /** Stage display name. */
    std::string name = "stage";

    /** Hardware footprint of this stage compiled as its own kernel. */
    ResourceUsage resources;

    /** Threads cooperating on one data item (the paper's threadNum). */
    int threadNum = 1;

    /**
     * Block size when this stage runs in its own kernel (KBK, coarse,
     * fine, DP); 0 = the configuration default. Merged kernels (RTC,
     * Megakernel) always use the configuration default.
     */
    int blockThreads = 0;

    /**
     * Bytes the host must move per item when this stage's successors
     * are sequenced by the CPU (KBK model only): recursion control
     * and intermediate-result copies.
     */
    double kbkHostBytesPerItem = 0.0;

    /**
     * True when re-executing an item of this stage is safe (pure
     * transform or idempotent writes). Retryable stages have their
     * in-flight items replayed after an SM failure; non-retryable
     * ones dead-letter them. Transient *fetch* faults are decided
     * before execution and are retried regardless of this flag.
     */
    bool retryable = false;

    /**
     * Bound on this stage's input queue depth (0 = unbounded). A
     * full queue backpressures producers — and can deadlock a cyclic
     * pipeline, which the watchdog converts into a diagnostic.
     */
    std::size_t queueCapacity = 0;

    /** Payload type of this stage's data items. */
    virtual std::type_index itemType() const = 0;

    /** Payload size in bytes. */
    virtual int itemBytes() const = 0;

    /** Create this stage's input work queue. */
    virtual std::unique_ptr<QueueBase> makeQueue() const = 0;

    /**
     * Create a remote stub standing in for this stage's queue on
     * devices the stage is not homed on: pushes divert through
     * @p forward to the home device (see remote_queue.hh). For
     * bounded stages, @p fullProbe wires the credit scheme that
     * keeps backpressure working across the interconnect.
     */
    virtual std::unique_ptr<QueueBase>
    makeRemoteStub(RemoteForward forward,
                   RemoteFullProbe fullProbe = {}) const = 0;

    /**
     * Pop up to @p maxItems items from @p q and execute each,
     * recording outputs and costs in @p ctx. When @p ctx replays a
     * task graph, each item's recorded cost and children stand in
     * for cost() and execute(). With @p fb, the first fb->failItems
     * items fail instead of executing and the outcome lands in
     * @p fb (see FaultBatch); BatchResult::items counts the executed
     * items only.
     */
    virtual BatchResult runBatch(ExecContext& ctx, QueueBase& q,
                                 int maxItems, FaultBatch* fb) = 0;

    /** Reset any mutable stage-held state between runs. */
    virtual void reset() {}
};

/**
 * One buffered output of a task: the target stage and a closure that
 * pushes the typed payload into that stage's queue at commit time.
 */
struct StagedOutput
{
    int stage;
    /** Pushes the payload; empty for a replayed child, which is
     *  pushed as a placeholder. */
    std::function<void(QueueBase&)> push;
    /** Provenance id of the popped item whose task produced this
     *  output (0 = untracked); the runtime mints the output's own id
     *  from it at commit time, so aborted batches leave no orphan
     *  lineage records. */
    std::uint64_t provParent = 0;
    /** Under capture and replay: the child's task record, which
     *  rides with the item as its queue tag. */
    const TaskGraph::Task* record = nullptr;

    /** Push the output into @p q. */
    void
    commit(QueueBase& q)
    {
        if (record)
            q.stampNextPushTag(record);
        if (push)
            push(q);
        else
            q.pushPlaceholder();
    }
};

/**
 * Execution context passed to Stage::execute.
 *
 * Collects the outputs a task produces; the runtime commits them to
 * the work queues once the task's simulated execution has completed.
 * For stages inlined into an RTC-style chain kernel, enqueue()
 * executes the downstream stage immediately inside the same task and
 * folds its cost in (the paper's run-to-completion semantics).
 */
class ExecContext
{
  public:
    /**
     * @param pipe the pipeline (for stage lookup by type)
     * @param inlineMask stages executed inline rather than queued
     * @param smId SM the executing block resides on (-1 = n/a)
     */
    /**
     * @param entryThreads threads per task of the stage whose batch
     *        is being executed; inlined stages with wider tasks have
     *        their per-thread costs scaled up, since the same entry
     *        threads must do their work (RTC semantics).
     * @param joins the run's join counters (null outside a run)
     */
    ExecContext(Pipeline& pipe, StageMask inlineMask, int smId,
                int entryThreads = 1, JoinCounters* joins = nullptr)
        : pipe_(pipe), inlineMask_(inlineMask), smId_(smId),
          entryThreads_(std::max(1, entryThreads)), joins_(joins)
    {}

    ExecContext(const ExecContext&) = delete;
    ExecContext& operator=(const ExecContext&) = delete;

    /** SM the executing block resides on. */
    int smId() const { return smId_; }

    /** Threads per task of the batch's entry stage. */
    int entryThreads() const { return entryThreads_; }

    /** Provenance id of the item the current task is executing
     *  (0 = untracked). Set by runBatch before each execute();
     *  outputs enqueued by the task inherit it as their lineage
     *  parent — including through inline (RTC) chains, which run
     *  inside the same task. */
    void setProvParent(std::uint64_t id) { provParent_ = id; }
    std::uint64_t provParent() const { return provParent_; }

    /**
     * Send @p item to stage @p S (the paper's
     * enqueue<StageClassName>(itemVal)). Defined in stage_impl.hh.
     */
    template <typename S>
    void enqueue(typename S::DataItemType item);

    /**
     * Arrive at @p join with @p key (core/join.hh). On the key's last
     * expected arrival the join's continuation runs here, inside this
     * task, so its children enqueue (or inline) at this point. Fatal
     * (ErrorCode::Config) on an arrival past the expected count.
     * Defined in stage_impl.hh.
     */
    template <typename K>
    void arrive(Join<K> join, const K& key);

    /** Outputs buffered so far (consumed by the runtime). */
    std::vector<StagedOutput>& outputs() { return outputs_; }

    /** Per-stage counts of tasks executed inline (RTC chaining). */
    const std::vector<std::pair<int, int>>&
    inlineRuns() const
    {
        return inlineRuns_;
    }

    /** Record one inline execution of stage @p s (internal). */
    void
    noteInlineRun(int s)
    {
        for (auto& [stage, count] : inlineRuns_) {
            if (stage == s) {
                ++count;
                return;
            }
        }
        inlineRuns_.emplace_back(s, 1);
    }

    /** @name Runtime-side batch bookkeeping @{ */

    /** Begin accounting one task with base cost @p c. */
    void
    beginTask(const TaskCost& c)
    {
        taskCost_ = c;
    }

    /** Add inline-executed downstream cost to the current task. */
    void
    addInlineCost(const TaskCost& c)
    {
        taskCost_ += c;
    }

    /** Finish the current task, returning its accumulated cost. */
    TaskCost
    endTask()
    {
        return taskCost_;
    }

    /** @} */

    /** @name Task-graph capture and replay (core/task_graph.hh) @{ */

    /**
     * With @p capture, record each task's cost and effects into it
     * (the batch must inline nothing); with @p replay, take them
     * from that sealed graph instead of running the payload. Both
     * null: the payload only.
     */
    void setTaskGraph(TaskGraph* capture, const TaskGraph* replay);

    bool capturing() const { return capture_ != nullptr; }
    bool replaying() const { return replay_ != nullptr; }

    /** Fill the record @p tag of the task just executed with its
     *  cost and effects. */
    void captureTask(const void* tag);

    /** Begin the recorded task @p tag: its cost, its inline chain,
     *  its arrivals and its staged outputs. */
    void replayTask(const void* tag);

    /** @} */

  private:
    /** @p c of an inlined task of a stage with @p threadNum threads
     *  per task, as charged to this batch's entry threads. */
    TaskCost
    inlinedCost(TaskCost c, int threadNum) const
    {
        // Per-thread costs of a wider stage fall on the (fewer)
        // entry threads when inlined into their task.
        double ratio = double(std::max(1, threadNum)) / entryThreads_;
        if (ratio > 1.0) {
            c.computeInsts *= ratio;
            c.memInsts *= ratio;
            c.serialInsts *= ratio;
        }
        return c;
    }

    /** Count one arrival at @p key of @p join, which expects
     *  @p expected; true on the last (out of line, in
     *  task_graph.cc). */
    bool arrived(const JoinKey& key, int expected,
                 const JoinBase& join);

    /** Fatal (ErrorCode::Config) unless @p n arrivals fit in
     *  @p expected or the run drops late ones; true on the last. */
    bool countArrival(int n, int expected, const JoinBase& join) const;

    void replayEffects(const std::vector<TaskGraph::Effect>& effects);

    Pipeline& pipe_;
    StageMask inlineMask_;
    int smId_;
    int entryThreads_ = 1;
    JoinCounters* joins_ = nullptr;
    std::uint64_t provParent_ = 0;
    int inlineDepth_ = 0;
    TaskCost taskCost_;
    std::vector<StagedOutput> outputs_;
    std::vector<std::pair<int, int>> inlineRuns_;

    TaskGraph* capture_ = nullptr;
    const TaskGraph* replay_ = nullptr;
    /** Under capture: the current task's effects, and where effects
     *  go now (the task's, or a continuation's join slot). */
    std::vector<TaskGraph::Effect> taskEffects_;
    std::vector<TaskGraph::Effect>* effects_ = &taskEffects_;

    static constexpr int kMaxInlineDepth = 64;
};

/**
 * Typed stage base (the paper's BaseStage<Derived>).
 *
 * @tparam T the stage's data-item type
 */
template <typename T>
class Stage : public StageBase
{
  public:
    using DataItemType = T;

    /** Per-item instruction cost driving the timing model. */
    virtual TaskCost cost(const T& item) const = 0;

    /** Process one item; may ctx.enqueue<Next>() results. */
    virtual void execute(ExecContext& ctx, T& item) = 0;

    std::type_index
    itemType() const override
    {
        return std::type_index(typeid(T));
    }

    int
    itemBytes() const override
    {
        return static_cast<int>(sizeof(T));
    }

    std::unique_ptr<QueueBase>
    makeQueue() const override
    {
        return std::make_unique<WorkQueue<T>>(name);
    }

    std::unique_ptr<QueueBase>
    makeRemoteStub(RemoteForward forward,
                   RemoteFullProbe fullProbe = {}) const override
    {
        auto stub = std::make_unique<RemoteStubQueue<T>>(
            name, std::move(forward));
        if (fullProbe)
            stub->setFullProbe(std::move(fullProbe));
        return stub;
    }

    // Defined in stage_impl.hh (needs the Pipeline definition).
    BatchResult runBatch(ExecContext& ctx, QueueBase& q, int maxItems,
                         FaultBatch* fb) override;
};

} // namespace vp

#endif // VP_CORE_STAGE_HH
