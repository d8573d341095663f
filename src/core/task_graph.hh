/**
 * @file
 * TaskGraph: the task graph of one run, captured once and replayed
 * by later runs in place of the app payload (the auto-tuner's
 * payload-free candidates; docs/MODEL.md, "Tuner replay").
 *
 * The timing model reads two things from a task's payload: its own
 * TaskCost and the children it enqueues. When an item's bytes
 * identify it — the same (stage, item) always costs the same and
 * enqueues the same children, whatever the schedule
 * (AppDriver::keyedItems) — one capture fixes both for every item,
 * and a run that replays the capture reproduces the real run's
 * cycles and events exactly.
 */

#ifndef VP_CORE_TASK_GRAPH_HH
#define VP_CORE_TASK_GRAPH_HH

#include <cstddef>
#include <functional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

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

    /** One child a recorded task enqueued. */
    struct Child
    {
        int stage = 0;
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
        /** Direct children, in enqueue order. */
        std::vector<Child> children;
    };

    /** An empty graph over @p stages stages. */
    explicit TaskGraph(int stages);

    /**
     * Record one execution of item @p key in @p stage. Fatal
     * (ErrorCode::Config) when that (stage, key) executed before: the
     * app's items do not identify its tasks.
     */
    void add(int stage, std::string key, const TaskCost& cost,
             std::vector<Child> children);

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
    std::vector<std::unordered_map<std::string, Task>> byStage_;
    bool sealed_ = false;
};

} // namespace vp

#endif // VP_CORE_TASK_GRAPH_HH
