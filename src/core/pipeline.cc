#include "core/pipeline.hh"

#include <optional>

namespace vp {

const char*
structureName(PipelineStructure s)
{
    switch (s) {
      case PipelineStructure::Linear: return "linear";
      case PipelineStructure::Loop: return "loop";
      case PipelineStructure::Recursion: return "recursion";
    }
    return "?";
}

void
Pipeline::link(int from, int to)
{
    VP_REQUIRE(from >= 0 && from < stageCount(),
               "link: bad source stage " << from);
    VP_REQUIRE(to >= 0 && to < stageCount(),
               "link: bad target stage " << to);
    for (const auto& [f, t] : edges_)
        if (f == from && t == to)
            return; // idempotent
    edges_.emplace_back(from, to);
}

StageBase&
Pipeline::stage(int i)
{
    VP_REQUIRE(i >= 0 && i < stageCount(), "stage index " << i
               << " out of range");
    return *stages_[i];
}

const StageBase&
Pipeline::stage(int i) const
{
    VP_REQUIRE(i >= 0 && i < stageCount(), "stage index " << i
               << " out of range");
    return *stages_[i];
}

const JoinBase&
Pipeline::join(int i) const
{
    VP_REQUIRE(i >= 0 && i < static_cast<int>(joins_.size()),
               "join index " << i << " out of range");
    return *joins_[static_cast<std::size_t>(i)];
}

int
Pipeline::indexOfType(std::type_index ti) const
{
    auto it = byType_.find(ti);
    VP_REQUIRE(it != byType_.end(),
               "stage type not registered in this pipeline");
    return it->second;
}

void
Pipeline::refreshMasks() const
{
    std::pair<std::size_t, std::size_t> key{stages_.size(),
                                            edges_.size()};
    if (key == maskKey_)
        return;
    int n = stageCount();
    producerMasks_.assign(n, 0);
    consumerMasks_.assign(n, 0);
    for (const auto& [f, t] : edges_) {
        producerMasks_[t] |= StageMask(1) << f;
        consumerMasks_[f] |= StageMask(1) << t;
    }
    ancestorMasks_.assign(n, 0);
    for (int s = 0; s < n; ++s) {
        // Fixed-point over the reverse edges.
        StageMask frontier = producerMasks_[s];
        StageMask seen = frontier;
        while (frontier) {
            StageMask next = 0;
            for (int i = 0; i < n; ++i)
                if (frontier & (StageMask(1) << i))
                    next |= producerMasks_[i];
            frontier = next & ~seen;
            seen |= next;
        }
        ancestorMasks_[s] = seen;
    }
    maskKey_ = key;
}

StageMask
Pipeline::producersOf(int s) const
{
    if (s < 0 || s >= stageCount())
        return 0;
    refreshMasks();
    return producerMasks_[s];
}

StageMask
Pipeline::consumersOf(int s) const
{
    if (s < 0 || s >= stageCount())
        return 0;
    refreshMasks();
    return consumerMasks_[s];
}

StageMask
Pipeline::ancestorsOf(int s) const
{
    if (s < 0 || s >= stageCount())
        return 0;
    refreshMasks();
    return ancestorMasks_[s];
}

bool
Pipeline::hasCycle() const
{
    for (int i = 0; i < stageCount(); ++i)
        if (ancestorsOf(i) & (StageMask(1) << i))
            return true;
    return false;
}

PipelineStructure
Pipeline::structure() const
{
    if (explicit_)
        return *explicit_;
    return hasCycle() ? PipelineStructure::Recursion
                      : PipelineStructure::Linear;
}

void
Pipeline::resetStages()
{
    for (auto& s : stages_)
        s->reset();
}

void
Pipeline::validate() const
{
    VP_REQUIRE(stageCount() > 0, "pipeline has no stages");
    // Every stage other than the first must be reachable from some
    // other stage; isolated stages indicate a missing link().
    for (int i = 1; i < stageCount(); ++i) {
        VP_REQUIRE(producersOf(i) != 0 || consumersOf(i) != 0,
                   "stage `" << stage(i).name
                   << "` is disconnected; declare link()s");
    }
}

} // namespace vp
