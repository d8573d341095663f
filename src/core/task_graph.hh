/**
 * @file
 * TaskGraph: the task graph of one run, captured once and replayed
 * by later runs in place of the app payload (the auto-tuner's
 * payload-free candidates; docs/MODEL.md, "Tuner replay").
 *
 * The timing model reads two things from a task's payload: its own
 * TaskCost and its effects, the children it enqueues and the joins
 * it arrives at (core/join.hh). When an item's bytes identify it —
 * the same (stage, item) always costs the same and has the same
 * effects, whatever the schedule (AppDriver::keyedItems) — one
 * capture fixes them for every item, and a run that replays the
 * capture reproduces the real run's cycles and events exactly. A
 * join's continuation is recorded once per (join, key); replay
 * counts the arrivals per run and emits it on the last one.
 */

#ifndef VP_CORE_TASK_GRAPH_HH
#define VP_CORE_TASK_GRAPH_HH

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/join.hh"
#include "gpu/resources.hh"

namespace vp {

class QueueBase;

/** Panics: an item type without a byte key reached capture or
 *  replay (out of line, so item types without a key stay lean). */
[[noreturn]] void noItemKey();

/**
 * The replay key of @p item: its bytes. Only item types whose bytes
 * are their value (no padding, no floats) have one
 * (StageBase::keyable); capture refuses pipelines with other types
 * before any stage runs.
 */
template <typename T>
std::string
itemKey(const T& item)
{
    if constexpr (std::has_unique_object_representations_v<T>) {
        return std::string(reinterpret_cast<const char*>(&item),
                           sizeof(T));
    } else {
        (void)item;
        noItemKey();
    }
}

/** Recorded stage executions of one run, keyed by (stage, item). */
class TaskGraph
{
  public:
    struct Task;

    /** One effect of a recorded task or continuation, in program
     *  order: a child it enqueued, or an arrival at a join. */
    struct Effect
    {
        /** The child's stage; -1 for an arrival. */
        int stage = -1;
        /** An arrival's join slot. */
        int slot = -1;
        /** The child item's key in `stage`. */
        std::string key;
        /** Pushes the child item into a queue of `stage`. */
        std::function<void(QueueBase&)> push;
        /** The child's own record; set by seal(). */
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

    /**
     * Record one execution of item @p key in @p stage. Fatal
     * (ErrorCode::Config) when that (stage, key) executed before: the
     * app's items do not identify its tasks.
     */
    void add(int stage, std::string key, const TaskCost& cost,
             std::vector<Effect> effects);

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
     * Link every child to its own record. Fatal (ErrorCode::Config)
     * when a child never executed. The graph is read-only afterwards,
     * so concurrent runs may replay one sealed graph.
     */
    void seal();

    /** True once seal() succeeded. */
    bool sealed() const { return sealed_; }

    /**
     * The record of item @p key in @p stage. Fatal
     * (ErrorCode::Config) on a miss: replay never falls back to the
     * payload.
     */
    const Task& find(int stage, const std::string& key) const;

    /** Stages the graph spans. */
    int stageCount() const { return static_cast<int>(byStage_.size()); }

    /** Recorded tasks over all stages. */
    std::size_t size() const;

  private:
    void link(Task& t);

    std::vector<std::unordered_map<std::string, Task>> byStage_;
    std::unordered_map<JoinKey, int, JoinKeyHash> slotOf_;
    std::deque<Slot> slots_;
    bool sealed_ = false;
};

} // namespace vp

#endif // VP_CORE_TASK_GRAPH_HH
