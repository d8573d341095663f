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
    tries_.push();
    if (std::uint64_t id = ids_.push())
        prov_->noteEnqueue(id, provStage_, provDevice_, provSim_->now());
    tags_.push();
}

void
QueueBase::recordPop(std::size_t depthAfter, std::uint64_t n)
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
    tries_.pop(n);
    ids_.pop(n);
    tags_.pop(n);
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
        ids_.enable(size());
    else
        ids_.disable();
}

} // namespace vp
