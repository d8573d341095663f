#include "core/task_graph.hh"

#include "common/error.hh"
#include "core/pipeline.hh"

namespace vp {

TaskGraph::TaskGraph(int stages)
    : stages_(stages)
{
}

TaskGraph::Task&
TaskGraph::newTask()
{
    VP_ASSERT(!sealed_, "task graph is sealed");
    return tasks_.emplace_back();
}

TaskGraph::Task&
TaskGraph::newSeed(int flow, int ordinal, int stage)
{
    auto f = static_cast<std::size_t>(flow);
    if (seeds_.size() <= f)
        seeds_.resize(f + 1);
    VP_ASSERT(static_cast<std::size_t>(ordinal) == seeds_[f].size(),
              "flow " << flow << " seeded out of order");
    Task& t = newTask();
    seeds_[f].push_back(Effect{stage, -1, &t});
    return t;
}

void
TaskGraph::fill(Task& t, const TaskCost& cost, std::vector<Effect> effects)
{
    t.cost = cost;
    t.effects = std::move(effects);
    ++filled_;
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
TaskGraph::seal()
{
    VP_CHECK(filled_ == tasks_.size(), ErrorCode::Config,
             "task graph: " << tasks_.size() - filled_ << " of "
             << tasks_.size() << " recorded tasks never executed");
    sealed_ = true;
}

const TaskGraph::Task&
TaskGraph::seed(int flow, int ordinal, int stage) const
{
    auto f = static_cast<std::size_t>(flow);
    auto o = static_cast<std::size_t>(ordinal);
    VP_CHECK(f < seeds_.size() && o < seeds_[f].size(), ErrorCode::Config,
             "task graph: flow " << flow << " has no recorded seed "
             << ordinal);
    const Effect& e = seeds_[f][o];
    VP_CHECK(e.stage == stage, ErrorCode::Config,
             "task graph: seed " << ordinal << " of flow " << flow
             << " entered stage " << e.stage << " in the capture, "
             "stage " << stage << " here");
    return *e.task;
}

// ------------------------- ExecContext side ---------------------- //

void
ExecContext::setTaskGraph(TaskGraph* capture, const TaskGraph* replay)
{
    VP_ASSERT(!(capture && replay), "capture and replay at once");
    VP_CHECK(!capture || inlineMask_ == 0, ErrorCode::Config,
             "task graph capture needs a run that inlines nothing");
    capture_ = capture;
    replay_ = replay;
}

void
ExecContext::captureTask(const void* tag)
{
    VP_ASSERT(tag, "an untagged item under capture");
    // The tag is a record of capture_, stamped when its item was
    // pushed; this task fills it.
    capture_->fill(*static_cast<TaskGraph::Task*>(const_cast<void*>(tag)),
                   taskCost_, std::move(taskEffects_));
    taskEffects_.clear();
}

void
ExecContext::replayTask(const void* tag)
{
    VP_ASSERT(tag, "an untagged item under replay");
    const auto& t = *static_cast<const TaskGraph::Task*>(tag);
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
                StagedOutput{e.stage, {}, provParent_, e.task});
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
