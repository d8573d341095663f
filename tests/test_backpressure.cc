/**
 * @file
 * Bounded-queue backpressure parity: a pipeline whose middle stage
 * has a finite queue capacity must behave identically on one device
 * and on a 2-device group under every default shard plan — same
 * outcome, same per-stage work, and the bound actually enforced.
 *
 * Regression coverage for the remote-stub credit scheme: stages
 * homed on another device used to report full() == false
 * unconditionally, so producers on peer devices ignored the bound
 * entirely (no backpressure waits, home queue depth beyond
 * capacity).
 */

#include <gtest/gtest.h>

#include <map>

#include "core/shard.hh"
#include "queueing/remote_queue.hh"
#include "toy_apps.hh"

using namespace vp;
using test::ToyItem;

namespace {

constexpr std::size_t kBound = 8;

struct BpSink;
struct BpWork;

/** Fast producer: floods the bounded middle stage. */
struct BpGen : Stage<ToyItem>
{
    BpGen()
    {
        name = "bp_gen";
        retryable = true;
        threadNum = 64; // small batches so the bound is felt
        resources.regsPerThread = 32;
        resources.codeBytes = 4000;
    }

    TaskCost
    cost(const ToyItem&) const override
    {
        TaskCost c;
        c.computeInsts = 100;
        c.memInsts = 10;
        return c;
    }

    void execute(ExecContext& ctx, ToyItem& item) override;
};

/** Slow bounded consumer: its input queue holds kBound items. */
struct BpWork : Stage<ToyItem>
{
    BpWork()
    {
        name = "bp_work";
        retryable = true;
        threadNum = 64;
        queueCapacity = kBound;
        resources.regsPerThread = 48;
        resources.codeBytes = 6000;
    }

    TaskCost
    cost(const ToyItem&) const override
    {
        TaskCost c;
        c.computeInsts = 2000;
        c.memInsts = 100;
        return c;
    }

    void execute(ExecContext& ctx, ToyItem& item) override;
};

struct BpSink : Stage<ToyItem>
{
    BpSink()
    {
        name = "bp_sink";
        resources.regsPerThread = 24;
        resources.codeBytes = 3000;
    }

    TaskCost
    cost(const ToyItem&) const override
    {
        TaskCost c;
        c.computeInsts = 100;
        c.memInsts = 20;
        return c;
    }

    void
    execute(ExecContext&, ToyItem& item) override
    {
        sum += item.value;
        ++count;
    }

    void
    reset() override
    {
        sum = 0;
        count = 0;
    }

    long sum = 0;
    int count = 0;
};

inline void
BpGen::execute(ExecContext& ctx, ToyItem& item)
{
    item.value += 1;
    ctx.enqueue<BpWork>(item);
}

inline void
BpWork::execute(ExecContext& ctx, ToyItem& item)
{
    item.value *= 2;
    ctx.enqueue<BpSink>(item);
}

/** Linear pipeline with a bounded middle stage. */
class BoundedApp : public AppDriver
{
  public:
    explicit BoundedApp(int flows = 3, int perFlow = 60)
        : flows_(flows), perFlow_(perFlow)
    {
        pipe_.addStage<BpGen>();
        pipe_.addStage<BpWork>();
        pipe_.addStage<BpSink>();
        pipe_.link<BpGen, BpWork>();
        pipe_.link<BpWork, BpSink>();
    }

    std::string name() const override { return "bounded-toy"; }

    Pipeline& pipeline() override { return pipe_; }

    void reset() override {}

    int flowCount() const override { return flows_; }

    void
    seedFlow(Seeder& seeder, int flow) override
    {
        std::vector<ToyItem> items;
        for (int i = 0; i < perFlow_; ++i)
            items.push_back(ToyItem{flow * 1000 + i, flow});
        seeder.insert<BpGen>(std::move(items));
    }

    double inputBytes() const override { return 1 << 16; }

    bool
    verify() override
    {
        auto& sink = pipe_.stageAs<BpSink>();
        if (sink.count != flows_ * perFlow_)
            return false;
        long want = 0;
        for (int f = 0; f < flows_; ++f)
            for (int i = 0; i < perFlow_; ++i)
                want += (f * 1000 + i + 1) * 2;
        return sink.sum == want;
    }

  private:
    Pipeline pipe_;
    int flows_;
    int perFlow_;
};

std::map<std::string, std::uint64_t>
fingerprint(const RunResult& r)
{
    std::map<std::string, std::uint64_t> fp;
    for (const StageRunStats& s : r.stages)
        fp[s.name] = s.items + s.deadLettered;
    return fp;
}

std::size_t
workMaxDepth(const RunResult& r)
{
    for (const StageRunStats& s : r.stages)
        if (s.name == "bp_work")
            return s.queue.maxDepth;
    return 0;
}

/** Groups configurations whose shard plans exercise the bound. */
std::vector<std::pair<std::string, PipelineConfig>>
groupsModels(Pipeline& pipe, const DeviceConfig& dev)
{
    std::vector<std::pair<std::string, PipelineConfig>> out;
    out.emplace_back("megakernel", makeMegakernelConfig(pipe));
    out.emplace_back("coarse", makeCoarseConfig(pipe, dev));
    out.emplace_back("fine", makeFineConfig(pipe, dev));
    return out;
}

} // namespace

// Commits push one whole batch after the full() check, so the bound
// may legitimately overshoot by a few in-flight batches; anything
// near the seeded item count means the bound was ignored.
constexpr std::size_t kDepthSlack = 8;

TEST(Backpressure, BoundEnforcedOnOneDevice)
{
    DeviceConfig dev = DeviceConfig::byName("gtx1080");
    BoundedApp app;
    Engine engine(dev);
    // Coarse: the producer owns dedicated SMs and keeps pushing
    // while the bounded consumer is starved for compute.
    RunResult r =
        engine.run(app, makeCoarseConfig(app.pipeline(), dev));
    ASSERT_TRUE(r.completed) << r.failureReason;
    EXPECT_GT(r.faults.backpressureWaits, 0u);
    EXPECT_LE(workMaxDepth(r), kBound + kDepthSlack);
}

TEST(Backpressure, ShardedRunsMatchSingleDeviceExactly)
{
    DeviceConfig dev = DeviceConfig::byName("gtx1080");
    BoundedApp app;
    Pipeline& pipe = app.pipeline();
    Engine single(dev);
    Engine group(DeviceGroupConfig::homogeneous(dev, 2));

    int pinnedCovered = 0;
    for (auto& [label, cfg] : groupsModels(pipe, dev)) {
        RunResult r1 = single.run(app, cfg);
        ASSERT_TRUE(r1.completed) << label << ": "
                                  << r1.failureReason;
        auto want = fingerprint(r1);
        for (const ShardPlan& plan : defaultShardPlans(cfg, pipe, 2)) {
            RunResult r2 = group.runSharded(app, cfg, plan);
            ASSERT_TRUE(r2.completed)
                << label << "/" << plan.describe() << ": "
                << r2.failureReason;
            EXPECT_EQ(r2.outcome, r1.outcome)
                << label << "/" << plan.describe();
            EXPECT_EQ(fingerprint(r2), want)
                << label << "/" << plan.describe();
            // The bound must hold no matter which device the stage
            // landed on.
            EXPECT_LE(workMaxDepth(r2), kBound + kDepthSlack)
                << label << "/" << plan.describe();
            if (plan.anyPinned()) {
                // Remote producers honor the home queue's capacity
                // through the credit scheme: the bounded stage still
                // pushes back across the interconnect.
                EXPECT_GT(r2.faults.backpressureWaits, 0u)
                    << label << "/" << plan.describe();
                ++pinnedCovered;
            }
        }
    }
    // Coarse splits into one group per stage, so its round-robin
    // pinned plan must have exercised the remote-capacity path.
    EXPECT_GE(pinnedCovered, 1);
}

TEST(Backpressure, RemoteStubReportsHomeQueueFull)
{
    // Unit-level credit check: a stub with a wired probe mirrors the
    // probe's verdict; an unwired stub (the pre-coordinator default)
    // stays permissive.
    int calls = 0;
    bool full = false;
    RemoteStubQueue<ToyItem> stub(
        "stub",
        [](int, std::uint64_t, const void*,
           std::function<void(QueueBase&)>) {});
    EXPECT_FALSE(stub.full()); // unwired: permissive, as before
    stub.setFullProbe([&calls, &full] {
        ++calls;
        return full;
    });
    EXPECT_FALSE(stub.full());
    full = true;
    EXPECT_TRUE(stub.full());
    EXPECT_EQ(calls, 2);
}
