/**
 * @file
 * TaskGraph: the task graph of one run, captured once and replayed
 * by later runs in place of the app payload (the auto-tuner's
 * payload-free candidates; docs/MODEL.md, "Tuner replay").
 *
 * The timing model reads two things from a task's payload: its own
 * TaskCost and its effects, the children it enqueues and the joins
 * it arrives at (core/join.hh). A task is named by its lineage, not
 * by its item: each seed by (flow, ordinal in the flow), each child
 * by the effect of its parent that enqueued it, the way CUDA Graphs
 * replay captured work by its place in the graph. When a task's cost
 * and effects depend only on its lineage, whatever the schedule
 * (AppDriver::replayable), one capture fixes them for every task,
 * and a run that replays the capture reproduces the real run's
 * cycles and events exactly. Every item carries its record as its
 * queue tag, so no item value is read under replay. A join's
 * continuation is recorded once per (join, key); replay counts the
 * arrivals per run and emits it on the last one.
 */

#ifndef VP_CORE_TASK_GRAPH_HH
#define VP_CORE_TASK_GRAPH_HH

#include <cstddef>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/join.hh"
#include "gpu/resources.hh"

namespace vp {

/** Recorded stage executions of one run, linked by lineage. */
class TaskGraph
{
  public:
    struct Task;

    /** One effect of a recorded task or continuation, in program
     *  order: a child it enqueued, or an arrival at a join. A seed
     *  is an effect of its flow. */
    struct Effect
    {
        /** The child's stage; -1 for an arrival. */
        int stage = -1;
        /** An arrival's join slot. */
        int slot = -1;
        /** The child's own record. */
        const Task* task = nullptr;
    };

    /** One recorded stage execution. */
    struct Task
    {
        /** The task's own cost, without inlined children. */
        TaskCost cost;
        /** Its effects, in program order. */
        std::vector<Effect> effects;
    };

    /** One (join, key) the capture saw arrivals at. */
    struct Slot
    {
        /** The join's index in its pipeline. */
        int join = 0;
        /** Arrivals that complete it. */
        int expected = 0;
        /** The continuation's effects, recorded by the last arrival
         *  (as a Task whose cost stays zero). */
        Task then;
    };

    /** An empty graph over @p stages stages. */
    explicit TaskGraph(int stages);

    /** A fresh record for one enqueued child (capture); the
     *  parent's effect names it. */
    Task& newTask();

    /** A fresh record for seed @p ordinal of flow @p flow, which
     *  enters stage @p stage (capture). A flow's seeds come in
     *  order. */
    Task& newSeed(int flow, int ordinal, int stage);

    /** Fill record @p t with its task's @p cost and @p effects. */
    void fill(Task& t, const TaskCost& cost, std::vector<Effect> effects);

    /** The slot of join instance @p key, created on its first
     *  arrival with @p expected arrivals (capture). */
    int slotFor(const JoinKey& key, int expected);

    /** Slot @p s; references stay valid while slots are added. */
    Slot& slot(int s) { return slots_[static_cast<std::size_t>(s)]; }
    const Slot&
    slot(int s) const
    {
        return slots_[static_cast<std::size_t>(s)];
    }

    /**
     * Close the capture. Fatal (ErrorCode::Config) when a record was
     * never filled. The graph is read-only afterwards, so concurrent
     * runs may replay one sealed graph.
     */
    void seal();

    /** True once seal() succeeded. */
    bool sealed() const { return sealed_; }

    /**
     * The record of seed @p ordinal of flow @p flow, which enters
     * stage @p stage (replay). Fatal (ErrorCode::Config) on a miss
     * or when the captured seed entered another stage: replay never
     * falls back to the payload.
     */
    const Task& seed(int flow, int ordinal, int stage) const;

    /** Stages the graph spans. */
    int stageCount() const { return stages_; }

    /** Recorded tasks. */
    std::size_t size() const { return tasks_.size(); }

  private:
    int stages_;
    /** Every record; references stay valid while records are
     *  added. */
    std::deque<Task> tasks_;
    std::size_t filled_ = 0;
    /** Per flow, its seeds in order. */
    std::vector<std::vector<Effect>> seeds_;
    std::unordered_map<JoinKey, int, JoinKeyHash> slotOf_;
    std::deque<Slot> slots_;
    bool sealed_ = false;
};

} // namespace vp

#endif // VP_CORE_TASK_GRAPH_HH
