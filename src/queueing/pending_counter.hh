/**
 * @file
 * Global outstanding-work counter used to detect pipeline completion.
 *
 * Every data item in any queue or in flight inside a block contributes
 * one unit. Persistent kernels terminate when the counter drains to
 * zero (after at least one item was ever added), which is exact even
 * for recursive pipelines: an item is only retired after all items it
 * spawned have been counted.
 */

#ifndef VP_QUEUEING_PENDING_COUNTER_HH
#define VP_QUEUEING_PENDING_COUNTER_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace vp {

/** Outstanding-work counter with drain notification. */
class PendingCounter
{
  public:
    /** Add @p n units of outstanding work. */
    void add(std::int64_t n = 1);

    /** Retire @p n units; fires drain callbacks on reaching zero. */
    void sub(std::int64_t n = 1);

    /** Current outstanding units. */
    std::int64_t value() const { return value_; }

    /** True when work was ever added and all of it has retired. */
    bool done() const { return started_ && value() == 0; }

    /** Register a callback to fire when the counter drains. */
    void notifyOnDrain(std::function<void()> fn);

    /** Reset to the pristine state. */
    void reset();

  private:
    std::int64_t value_ = 0;
    bool started_ = false;
    std::vector<std::function<void()>> onDrain_;
};

} // namespace vp

#endif // VP_QUEUEING_PENDING_COUNTER_HH
