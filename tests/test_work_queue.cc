/**
 * @file
 * Unit tests for the work-queue library and its cost model.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <deque>
#include <new>

#include "obs/provenance.hh"
#include "queueing/work_queue.hh"

using namespace vp;

namespace {
/** Global operator new calls in this binary (see below). */
std::atomic<std::uint64_t> allocations{0};
} // namespace

// Count every allocation through the replaceable global operators so
// a test can measure what constructing a queue costs. The deletes are
// kept out of line: inlined, their free() would meet a new-expression
// at the call site and trip -Wmismatched-new-delete.
void*
operator new(std::size_t n)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    return operator new(n);
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

TEST(WorkQueue, FifoOrder)
{
    WorkQueue<int> q("q");
    q.push(1);
    q.push(2);
    q.push(3);
    int v = 0;
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 2);
    EXPECT_EQ(q.size(), 1u);
}

TEST(WorkQueue, PopOnEmptyReturnsFalse)
{
    WorkQueue<int> q("q");
    int v = 0;
    EXPECT_FALSE(q.pop(v));
}

TEST(WorkQueue, PopBatchTakesUpToMax)
{
    WorkQueue<int> q("q");
    for (int i = 0; i < 10; ++i)
        q.push(i);
    std::vector<int> out;
    EXPECT_EQ(q.popBatch(out, 4), 4u);
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(q.size(), 6u);
    out.clear();
    EXPECT_EQ(q.popBatch(out, 100), 6u);
    EXPECT_TRUE(q.empty());
}

TEST(WorkQueue, PopBatchCountsEveryPopInStats)
{
    WorkQueue<int> q("q");
    for (int i = 0; i < 10; ++i)
        q.push(i);
    std::vector<int> out;
    q.popBatch(out, 7);
    EXPECT_EQ(q.stats().pops, 7u);
    q.popBatch(out, 100);
    EXPECT_EQ(q.stats().pops, 10u);
    EXPECT_EQ(out.size(), 10u); // appended, not overwritten
    q.popBatch(out, 5); // empty queue: no stats movement
    EXPECT_EQ(q.stats().pops, 10u);
}

TEST(WorkQueue, ItemBytesMatchesPayload)
{
    struct Item { double a; int b; int c; };
    WorkQueue<Item> q("q");
    EXPECT_EQ(q.itemBytes(), static_cast<int>(sizeof(Item)));
}

TEST(WorkQueue, TypedDowncastChecksType)
{
    WorkQueue<int> q("q");
    QueueBase& base = q;
    EXPECT_NO_THROW(typedQueue<int>(base));
    EXPECT_THROW(typedQueue<double>(base), PanicError);
}

TEST(WorkQueue, StatsTrackDepthAndCounts)
{
    WorkQueue<int> q("q");
    q.push(1);
    q.push(2);
    int v;
    q.pop(v);
    q.push(3);
    q.push(4);
    EXPECT_EQ(q.stats().pushes, 4u);
    EXPECT_EQ(q.stats().pops, 1u);
    EXPECT_EQ(q.stats().maxDepth, 3u);
}

TEST(WorkQueue, ClearEmptiesQueue)
{
    WorkQueue<int> q("q");
    q.push(1);
    q.clear();
    EXPECT_TRUE(q.empty());
}

TEST(WorkQueue, AccessCostGrowsWithItemSize)
{
    auto cfg = DeviceConfig::k20c();
    struct Big { char data[272]; };  // Reyes-sized item (Table 2)
    struct Small { int v; };         // Raster-sized item
    WorkQueue<Big> big("big");
    WorkQueue<Small> small("small");
    Tick cb = big.accessCost(cfg, 0.0, 1);
    Tick cs = small.accessCost(cfg, 0.0, 1);
    EXPECT_GT(cb, cs);
}

TEST(WorkQueue, ContentionSurchargeWithinWindow)
{
    auto cfg = DeviceConfig::k20c();
    WorkQueue<int> q("q");
    Tick first = q.accessCost(cfg, 1000.0, 1);
    Tick second = q.accessCost(cfg, 1000.0, 1);
    Tick third = q.accessCost(cfg, 1001.0, 1);
    EXPECT_GT(second, first);
    EXPECT_GT(third, second);
}

TEST(WorkQueue, ContentionDecaysOutsideWindow)
{
    auto cfg = DeviceConfig::k20c();
    WorkQueue<int> q("q");
    q.accessCost(cfg, 0.0, 1);
    q.accessCost(cfg, 1.0, 1);
    // Far in the future the old accesses no longer contend.
    Tick later = q.accessCost(cfg, 100000.0, 1);
    WorkQueue<int> fresh("fresh");
    EXPECT_DOUBLE_EQ(later, fresh.accessCost(cfg, 0.0, 1));
}

TEST(WorkQueue, ContentionCyclesRecordedInStats)
{
    auto cfg = DeviceConfig::k20c();
    WorkQueue<int> q("q");
    q.accessCost(cfg, 0.0, 1);
    q.accessCost(cfg, 0.0, 1);
    EXPECT_GT(q.stats().contentionCycles, 0.0);
}

TEST(WorkQueue, ResetStatsClearsContentionWindow)
{
    // Regression: resetStats() used to leave the recent-access ring
    // populated, so a queue reused across runs charged phantom
    // contention from the previous run's accesses.
    auto cfg = DeviceConfig::k20c();
    WorkQueue<int> used("used");
    used.accessCost(cfg, 0.0, 1);
    used.accessCost(cfg, 0.0, 1);
    used.accessCost(cfg, 1.0, 1);
    used.resetStats();
    WorkQueue<int> fresh("fresh");
    EXPECT_DOUBLE_EQ(used.accessCost(cfg, 1.0, 1),
                     fresh.accessCost(cfg, 1.0, 1));
    EXPECT_DOUBLE_EQ(used.stats().contentionCycles,
                     fresh.stats().contentionCycles);
}

TEST(WorkQueue, RunResetRunMatchesTwoFreshRuns)
{
    auto cfg = DeviceConfig::k20c();
    auto runPattern = [&cfg](QueueBase& q) {
        Tick total = 0.0;
        for (int i = 0; i < 8; ++i)
            total += q.accessCost(cfg, 0.5 * i, 2);
        return total;
    };
    WorkQueue<int> reused("q");
    Tick first = runPattern(reused);
    reused.resetStats();
    Tick second = runPattern(reused);
    EXPECT_DOUBLE_EQ(second, first);
}

TEST(WorkQueue, ResetStatsRebaselinesDepthEwma)
{
    // A run-boundary reset re-baselines the EWMA to the live depth:
    // a queue still holding items must not claim an empty history,
    // and an emptied queue starts the next run from zero.
    WorkQueue<int> q("q");
    q.enableDepthEwma(0.5);
    q.push(1);
    q.push(2);
    EXPECT_GT(q.depthEwma(), 0.0);
    q.resetStats();
    EXPECT_DOUBLE_EQ(q.depthEwma(), 2.0);
    int out = 0;
    q.pop(out);
    q.pop(out);
    q.resetStats();
    EXPECT_DOUBLE_EQ(q.depthEwma(), 0.0);
}

TEST(WorkQueue, MoveOnlyPayloadsSupported)
{
    WorkQueue<std::unique_ptr<int>> q("q");
    q.push(std::make_unique<int>(5));
    std::unique_ptr<int> out;
    EXPECT_TRUE(q.pop(out));
    EXPECT_EQ(*out, 5);
}

TEST(WorkQueue, DisabledMetadataAllocatesNothing)
{
    // With retry counts, provenance ids and tags all disabled, a
    // queue allocates only what its payload FIFO does.
    std::uint64_t before = allocations.load();
    {
        std::deque<int> payload;
        payload.clear();
    }
    std::uint64_t payloadOnly = allocations.load() - before;
    before = allocations.load();
    {
        WorkQueue<int> q("q");
        EXPECT_FALSE(q.retryMetaEnabled());
        EXPECT_FALSE(q.provenanceEnabled());
    }
    EXPECT_EQ(allocations.load() - before, payloadOnly);
}

TEST(WorkQueue, MetadataLanesKeepFifoOrder)
{
    // Retry counts, provenance ids and tags stay parallel to the
    // payload across ring growth and wrap-around, through single and
    // batch pops.
    Simulator sim;
    ProvenanceTracker prov;
    WorkQueue<int> q("q");
    q.push(-1); // present before enabling: metadata 0 / null
    q.enableRetryMeta();
    q.enableTags();
    q.setProvenance(&prov, &sim, 0, 0);
    std::vector<std::uint64_t> ids(100);
    for (auto& id : ids)
        id = prov.mintSeed();
    static const int tags[100] = {};
    int next = 0, expect = -1;
    auto push = [&] {
        q.stampNextPushTries(static_cast<std::uint32_t>(next + 7));
        q.stampNextPushId(ids[static_cast<std::size_t>(next)]);
        q.stampNextPushTag(&tags[next]);
        q.push(next++);
    };
    auto check = [&](int item, std::size_t k) {
        if (item < 0) {
            EXPECT_EQ(q.poppedTries()[k], 0u);
            EXPECT_EQ(q.poppedIds()[k], 0u);
            EXPECT_EQ(q.poppedTags()[k], nullptr);
            return;
        }
        EXPECT_EQ(q.poppedTries()[k],
                  static_cast<std::uint32_t>(item + 7));
        EXPECT_EQ(q.poppedIds()[k], ids[static_cast<std::size_t>(item)]);
        EXPECT_EQ(q.poppedTags()[k], &tags[item]);
    };
    for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 12; ++i)
            push();
        EXPECT_EQ(q.triesAt(1), q.triesAt(0) == 0 ? 7u : q.triesAt(0) + 1);
        int out = 0;
        for (int i = 0; i < 5; ++i) {
            ASSERT_TRUE(q.pop(out));
            EXPECT_EQ(out, expect++);
            check(out, 0);
        }
        std::vector<int> batch;
        ASSERT_EQ(q.popBatch(batch, 4), 4u);
        for (std::size_t k = 0; k < batch.size(); ++k) {
            EXPECT_EQ(batch[k], expect++);
            check(batch[k], k);
        }
    }
    EXPECT_EQ(q.size(), static_cast<std::size_t>(next - expect));
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.triesAt(0), 0u);
}
