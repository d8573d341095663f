#include "core/task_graph.hh"

#include "common/error.hh"
#include "core/pipeline.hh"

namespace vp {

void
noItemKey()
{
    VP_PANIC("item type has no byte key");
}

TaskGraph::TaskGraph(int stages)
    : byStage_(static_cast<std::size_t>(stages))
{
}

void
TaskGraph::add(int stage, std::string key, const TaskCost& cost,
               std::vector<Child> children)
{
    VP_ASSERT(!sealed_, "task graph is sealed");
    auto [it, fresh] = byStage_.at(static_cast<std::size_t>(stage))
                           .try_emplace(std::move(key));
    VP_CHECK(fresh, ErrorCode::Config,
             "task graph capture: stage " << stage
             << " executed the same item twice, so its items do not "
                "identify its tasks (AppDriver::keyedItems)");
    it->second.cost = cost;
    it->second.children = std::move(children);
}

void
TaskGraph::seal()
{
    for (auto& tasks : byStage_)
        for (auto& [key, task] : tasks)
            for (Child& c : task.children)
                c.task = &find(c.stage, c.key);
    sealed_ = true;
}

const TaskGraph::Task&
TaskGraph::find(int stage, const std::string& key) const
{
    const auto& tasks = byStage_.at(static_cast<std::size_t>(stage));
    auto it = tasks.find(key);
    VP_CHECK(it != tasks.end(), ErrorCode::Config,
             "task graph: stage " << stage
             << " has no recorded task for this item");
    return it->second;
}

std::size_t
TaskGraph::size() const
{
    std::size_t n = 0;
    for (const auto& tasks : byStage_)
        n += tasks.size();
    return n;
}

// ------------------------- ExecContext side ---------------------- //

void
ExecContext::setTaskGraph(int stage, TaskGraph* capture,
                          const TaskGraph* replay)
{
    VP_ASSERT(!(capture && replay), "capture and replay at once");
    VP_CHECK(!capture || inlineMask_ == 0, ErrorCode::Config,
             "task graph capture needs a run that inlines nothing");
    VP_ASSERT(!replay || replay->sealed(), "replay of an unsealed graph");
    stage_ = stage;
    capture_ = capture;
    replay_ = replay;
}

void
ExecContext::captureTask(std::string key)
{
    // Nothing is inlined under capture: the task's cost is its own,
    // and each child it enqueued is one of the last outputs.
    std::size_t first = outputs_.size() - capturedKeys_.size();
    std::vector<TaskGraph::Child> children;
    for (std::size_t k = 0; k < capturedKeys_.size(); ++k) {
        const StagedOutput& o = outputs_[first + k];
        children.push_back(TaskGraph::Child{
            o.stage, std::move(capturedKeys_[k]), o.push, nullptr});
    }
    capturedKeys_.clear();
    capture_->add(stage_, std::move(key), taskCost_,
                  std::move(children));
}

void
ExecContext::replayTask(const std::string& key)
{
    const TaskGraph::Task& t = replay_->find(stage_, key);
    beginTask(t.cost);
    replayChildren(t);
}

void
ExecContext::replayChildren(const TaskGraph::Task& t)
{
    // The pre-order of enqueue(): an inlined child's cost is added
    // before its own children are visited, so the floating-point
    // sums match the payload run bit for bit.
    for (const TaskGraph::Child& c : t.children) {
        if (!(inlineMask_ & (StageMask(1) << c.stage))) {
            outputs_.push_back(StagedOutput{c.stage, c.push,
                                            provParent_});
            continue;
        }
        VP_ASSERT(inlineDepth_ < kMaxInlineDepth,
                  "inline chain too deep (cycle in RTC group?)");
        ++inlineDepth_;
        addInlineCost(
            inlinedCost(c.task->cost, pipe_.stage(c.stage).threadNum));
        noteInlineRun(c.stage);
        replayChildren(*c.task);
        --inlineDepth_;
    }
}

} // namespace vp
