#include "queueing/pending_counter.hh"

#include "common/error.hh"

namespace vp {

void
PendingCounter::add(std::int64_t n)
{
    VP_ASSERT(n >= 0, "negative add " << n);
    value_ += n;
    if (n > 0)
        started_ = true;
}

void
PendingCounter::sub(std::int64_t n)
{
    VP_ASSERT(n >= 0, "negative sub " << n);
    VP_ASSERT(value_ >= n, "pending counter underflow: " << value_
              << " - " << n);
    value_ -= n;
    if (done()) {
        auto cbs = std::move(onDrain_);
        onDrain_.clear();
        for (auto& fn : cbs)
            fn();
    }
}

void
PendingCounter::notifyOnDrain(std::function<void()> fn)
{
    if (done()) {
        fn();
        return;
    }
    onDrain_.push_back(std::move(fn));
}

void
PendingCounter::reset()
{
    value_ = 0;
    started_ = false;
    onDrain_.clear();
}

} // namespace vp
