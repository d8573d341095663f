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
               std::vector<Effect> effects)
{
    VP_ASSERT(!sealed_, "task graph is sealed");
    auto [it, fresh] = byStage_.at(static_cast<std::size_t>(stage))
                           .try_emplace(std::move(key));
    VP_CHECK(fresh, ErrorCode::Config,
             "task graph capture: stage " << stage
             << " executed the same item twice, so its items do not "
                "identify its tasks (AppDriver::keyedItems)");
    it->second.cost = cost;
    it->second.effects = std::move(effects);
}

int
TaskGraph::slotFor(const JoinKey& key, int expected)
{
    VP_ASSERT(!sealed_, "task graph is sealed");
    auto [it, fresh] = slotOf_.try_emplace(
        key, static_cast<int>(slots_.size()));
    if (fresh) {
        slots_.emplace_back();
        slots_.back().join = key.join;
        slots_.back().expected = expected;
    }
    return it->second;
}

void
TaskGraph::link(Task& t)
{
    for (Effect& e : t.effects)
        if (e.stage >= 0)
            e.task = &find(e.stage, e.key);
}

void
TaskGraph::seal()
{
    for (auto& tasks : byStage_)
        for (auto& [key, task] : tasks)
            link(task);
    for (Slot& s : slots_)
        link(s.then);
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
    capture_->add(stage_, std::move(key), taskCost_,
                  std::move(taskEffects_));
    taskEffects_.clear();
}

const TaskGraph::Task&
ExecContext::recordOf(const std::string& key) const
{
    return replay_->find(stage_, key);
}

void
ExecContext::replayTask(const TaskGraph::Task& t)
{
    beginTask(t.cost);
    replayEffects(t.effects);
}

bool
ExecContext::countArrival(int n, int expected,
                          const JoinBase& join) const
{
    VP_CHECK(n <= expected || joins_->dropsLateArrivals(),
             ErrorCode::Config,
             "join `" << join.name << "`: arrival " << n << " of "
             << expected << " expected");
    return n == expected;
}

bool
ExecContext::arrived(const JoinKey& key, int expected,
                     const JoinBase& join)
{
    VP_ASSERT(joins_, "arrive() outside a run");
    VP_CHECK(expected >= 1, ErrorCode::Config,
             "join `" << join.name << "` expects " << expected
             << " arrivals");
    bool last = countArrival(joins_->arrive(key), expected, join);
    if (capture_) {
        TaskGraph::Effect e;
        e.slot = capture_->slotFor(key, expected);
        effects_->push_back(std::move(e));
    }
    return last;
}

void
ExecContext::replayEffects(const std::vector<TaskGraph::Effect>& effects)
{
    // The pre-order of enqueue(): an inlined child's cost is added
    // before its own effects are visited, and a completed join's
    // continuation runs at its last arrival, so the floating-point
    // sums match the payload run bit for bit.
    for (const TaskGraph::Effect& e : effects) {
        if (e.stage < 0) {
            const TaskGraph::Slot& s = replay_->slot(e.slot);
            if (countArrival(joins_->arriveSlot(
                                 static_cast<std::size_t>(e.slot)),
                             s.expected, pipe_.join(s.join)))
                replayEffects(s.then.effects);
            continue;
        }
        if (!(inlineMask_ & (StageMask(1) << e.stage))) {
            outputs_.push_back(
                StagedOutput{e.stage, {}, provParent_, &e});
            continue;
        }
        VP_ASSERT(inlineDepth_ < kMaxInlineDepth,
                  "inline chain too deep (cycle in RTC group?)");
        ++inlineDepth_;
        addInlineCost(
            inlinedCost(e.task->cost, pipe_.stage(e.stage).threadNum));
        noteInlineRun(e.stage);
        replayEffects(e.task->effects);
        --inlineDepth_;
    }
}

} // namespace vp
