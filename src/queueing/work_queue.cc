#include "queueing/work_queue.hh"

#include <algorithm>

namespace vp {

namespace {
/** Sliding window, in cycles, over which accesses contend. */
constexpr Tick kContentionWindow = 400.0;
} // namespace

QueueBase::QueueBase(std::string name, int itemBytes,
                     std::type_index type)
    : name_(std::move(name)), itemBytes_(itemBytes), type_(type)
{
    VP_REQUIRE(itemBytes_ > 0, "queue `" << name_
               << "`: item size must be positive");
}

QueueBase::~QueueBase() = default;

Tick
QueueBase::accessCost(const DeviceConfig& cfg, Tick now, int items)
{
    VP_ASSERT(items >= 0, "negative item count");
    // Evict timestamps that fell out of the window. Accesses arrive
    // in non-decreasing time order, so only the head can expire.
    while (!recent_.empty() && recent_.front() < now - kContentionWindow)
        recent_.pop_front();
    auto contenders = static_cast<double>(recent_.size());
    recent_.push_back(now);

    // Payload movement is warp-parallel on the device: 16 lanes of a
    // block cooperate on bulk enqueue/dequeue traffic.
    double base = cfg.queueOpCycles
        + cfg.queueByteCycles * itemBytes_ * std::max(items, 1)
              / 16.0;
    double contention = cfg.queueContentionCycles * contenders;
    stats_.opCycles += base + contention;
    stats_.contentionCycles += contention;
    return base + contention;
}

void
QueueBase::recordPush(std::size_t depthAfter)
{
    count_ = depthAfter;
    ++stats_.pushes;
    stats_.maxDepth = std::max(stats_.maxDepth, depthAfter);
    if (ewmaEnabled_)
        depthEwma_ +=
            ewmaAlpha_ * (static_cast<double>(depthAfter) - depthEwma_);
    if (tracer_)
        tracer_->counter(TraceKind::QueueDepth, traceTrack_,
                         tracer_->now(),
                         static_cast<double>(depthAfter),
                         traceName_);
    if (metaEnabled_) {
        tries_.push_back(nextTries_);
        nextTries_ = 0;
    }
    if (prov_) {
        ids_.push_back(nextId_);
        if (nextId_)
            prov_->noteEnqueue(nextId_, provStage_, provDevice_,
                               provSim_->now());
        nextId_ = 0;
    }
    if (tagsEnabled_) {
        tags_.push_back(nextTag_);
        nextTag_ = nullptr;
    }
}

void
QueueBase::recordPop(std::size_t depthAfter)
{
    count_ = depthAfter;
    ++stats_.pops;
    if (ewmaEnabled_)
        depthEwma_ +=
            ewmaAlpha_ * (static_cast<double>(depthAfter) - depthEwma_);
    if (tracer_)
        tracer_->counter(TraceKind::QueueDepth, traceTrack_,
                         tracer_->now(),
                         static_cast<double>(depthAfter),
                         traceName_);
    if (metaEnabled_) {
        poppedTries_.clear();
        if (!tries_.empty()) {
            poppedTries_.push_back(tries_.front());
            tries_.pop_front();
        }
    }
    if (prov_) {
        poppedIds_.clear();
        if (!ids_.empty()) {
            poppedIds_.push_back(ids_.front());
            ids_.pop_front();
        }
    }
    if (tagsEnabled_) {
        poppedTags_.clear();
        if (!tags_.empty()) {
            poppedTags_.push_back(tags_.front());
            tags_.pop_front();
        }
    }
}

void
QueueBase::recordPops(std::uint64_t n, std::size_t depthAfter)
{
    count_ = depthAfter;
    stats_.pops += n;
    if (ewmaEnabled_ && n > 0)
        depthEwma_ +=
            ewmaAlpha_ * (static_cast<double>(depthAfter) - depthEwma_);
    if (tracer_ && n > 0)
        tracer_->counter(TraceKind::QueueDepth, traceTrack_,
                         tracer_->now(),
                         static_cast<double>(depthAfter),
                         traceName_);
    if (metaEnabled_) {
        poppedTries_.clear();
        std::uint64_t take =
            std::min<std::uint64_t>(n, tries_.size());
        for (std::uint64_t i = 0; i < take; ++i) {
            poppedTries_.push_back(tries_.front());
            tries_.pop_front();
        }
    }
    if (prov_) {
        poppedIds_.clear();
        std::uint64_t take = std::min<std::uint64_t>(n, ids_.size());
        for (std::uint64_t i = 0; i < take; ++i) {
            poppedIds_.push_back(ids_.front());
            ids_.pop_front();
        }
    }
    if (tagsEnabled_) {
        poppedTags_.clear();
        std::uint64_t take = std::min<std::uint64_t>(n, tags_.size());
        for (std::uint64_t i = 0; i < take; ++i) {
            poppedTags_.push_back(tags_.front());
            tags_.pop_front();
        }
    }
}

void
QueueBase::enableRetryMeta()
{
    if (metaEnabled_)
        return;
    metaEnabled_ = true;
    tries_.assign(size(), 0);
}

void
QueueBase::enableTags()
{
    tagsEnabled_ = true;
    tags_.assign(size(), nullptr);
}

void
QueueBase::setProvenance(ProvenanceTracker* prov, const Simulator* sim,
                         int stage, int device)
{
    prov_ = prov;
    provSim_ = sim;
    provStage_ = stage;
    provDevice_ = device;
    if (prov_)
        ids_.assign(size(), 0);
}

std::uint32_t
QueueBase::triesAt(std::size_t i) const
{
    if (!metaEnabled_ || i >= tries_.size())
        return 0;
    return tries_[i];
}

} // namespace vp
