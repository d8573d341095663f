/**
 * @file
 * Multi-device sharding tests: plan construction/validation, group
 * determinism, exact work conservation against single-device runs,
 * cross-device transfer accounting, multi-device speedup, and fault
 * recovery (an SM kill on one device must not wedge the group).
 */

#include <gtest/gtest.h>

#include "apps/registry.hh"
#include "core/engine.hh"
#include "core/shard.hh"

using namespace vp;

namespace {

DeviceGroupConfig
twoGtx1080()
{
    return DeviceGroupConfig::homogeneous(
        DeviceConfig::byName("gtx1080"), 2);
}

/** Per-stage processed-item counts (the conservation fingerprint). */
std::vector<std::uint64_t>
stageItems(const RunResult& r)
{
    std::vector<std::uint64_t> v;
    for (const StageRunStats& s : r.stages)
        v.push_back(s.items + s.deadLettered);
    return v;
}

} // namespace

TEST(ShardPlan, FactoriesAndParse)
{
    auto app = makeApp("pyramid", AppScale::Small);
    Pipeline& pipe = app->pipeline();

    ShardPlan rep = ShardPlan::replicateAll(pipe);
    EXPECT_FALSE(rep.anyPinned());
    EXPECT_EQ(rep.describe(), "replicate");
    EXPECT_EQ(rep.homeDevice(0), -1);

    ShardPlan parsed = ShardPlan::parse("pin:0,1,1", pipe, 2);
    EXPECT_TRUE(parsed.anyPinned());
    EXPECT_EQ(parsed.homeDevice(0), 0);
    EXPECT_EQ(parsed.homeDevice(1), 1);
    EXPECT_TRUE(parsed.pinnedElsewhere(1, 0));
    EXPECT_FALSE(parsed.pinnedElsewhere(1, 1));
    EXPECT_EQ(parsed.describe(), "pin[0,1,1]");

    EXPECT_THROW(ShardPlan::parse("pin:0,7,0", pipe, 2), FatalError);
    EXPECT_THROW(ShardPlan::parse("pin:0,x,0", pipe, 2), FatalError);
    EXPECT_THROW(ShardPlan::parse("pin:0", pipe, 2), FatalError);
    EXPECT_THROW(ShardPlan::parse("bogus", pipe, 2), FatalError);
}

TEST(ShardPlan, ParseRejectsBadSpecsAsConfigErrors)
{
    // Regression: parse() used to accept out-of-range device
    // indices and empty pin lists, deferring the blow-up to deep
    // inside the sharded run. Every malformed spec must fail fast
    // with ErrorCode::Config.
    auto app = makeApp("pyramid", AppScale::Small);
    Pipeline& pipe = app->pipeline();
    auto expectConfigError = [&pipe](const std::string& spec,
                                     int nDevices) {
        try {
            ShardPlan::parse(spec, pipe, nDevices);
            FAIL() << "`" << spec << "` parsed without error";
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::Config)
                << "`" << spec << "`";
        }
    };
    expectConfigError("pin:", 2);         // empty device list
    expectConfigError("pin:0,-1,0", 2);   // negative device
    expectConfigError("pin:0,2,0", 2);    // index >= device count
    expectConfigError("pin:0,1,", 2);     // trailing empty token
    expectConfigError("pin:0,1 ,0", 2);   // embedded whitespace
    expectConfigError("pin:0,1", 2);      // stage-count mismatch
    expectConfigError("pinned:0,1,0", 2); // unknown scheme
}

TEST(ShardPlan, ValidateRejectsSplitGroupsAndNonGroupTops)
{
    auto app = makeApp("pyramid", AppScale::Small);
    Pipeline& pipe = app->pipeline();
    PipelineConfig mega = makeMegakernelConfig(pipe);

    // Splitting the single megakernel group across devices is
    // rejected: its kernel launches per device as a unit.
    ShardPlan split = ShardPlan::parse("pin:0,1,0", pipe, 2);
    EXPECT_THROW(split.validate(pipe, mega, 2), FatalError);

    ShardPlan rep = ShardPlan::replicateAll(pipe);
    EXPECT_NO_THROW(rep.validate(pipe, mega, 2));
    EXPECT_THROW(rep.validate(pipe, makeKbkConfig(), 2), FatalError);
}

TEST(ShardPlan, SeedHashIsDeterministicAndInRange)
{
    for (int stage = 0; stage < 4; ++stage) {
        for (int ord = 0; ord < 256; ++ord) {
            int d = shardSeedDevice(stage, ord, 3);
            EXPECT_GE(d, 0);
            EXPECT_LT(d, 3);
            EXPECT_EQ(d, shardSeedDevice(stage, ord, 3));
        }
    }
    // The hash actually spreads items (not all on one device).
    int seen[2] = {0, 0};
    for (int ord = 0; ord < 64; ++ord)
        ++seen[shardSeedDevice(0, ord, 2)];
    EXPECT_GT(seen[0], 0);
    EXPECT_GT(seen[1], 0);
}

TEST(Shard, TwoDeviceReplicateRunsAndConservesWork)
{
    auto app = makeApp("pyramid", AppScale::Small);
    PipelineConfig cfg = makeMegakernelConfig(app->pipeline());
    ShardPlan plan = ShardPlan::replicateAll(app->pipeline());

    Engine single(DeviceConfig::byName("gtx1080"));
    RunResult r1 = single.run(*app, cfg);
    ASSERT_TRUE(r1.completed);

    Engine group(twoGtx1080());
    EXPECT_EQ(group.deviceCount(), 2);
    RunResult r2 = group.runSharded(*app, cfg, plan);
    ASSERT_TRUE(r2.completed) << r2.failureReason;

    // Exact work conservation: every stage processes the same items
    // regardless of how the group splits them.
    EXPECT_EQ(stageItems(r1), stageItems(r2));
    EXPECT_EQ(r2.shardDevices.size(), 2u);
    // Replicate plans never cross the interconnect.
    EXPECT_EQ(r2.interconnect.transfers, 0u);
}

TEST(Shard, RerunsAreBitIdentical)
{
    auto app = makeApp("raster", AppScale::Small);
    PipelineConfig cfg = makeMegakernelConfig(app->pipeline());
    ShardPlan plan = ShardPlan::replicateAll(app->pipeline());

    Engine group(twoGtx1080());
    RunResult a = group.runSharded(*app, cfg, plan);
    RunResult b = group.runSharded(*app, cfg, plan);
    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.simEvents, b.simEvents);
    EXPECT_EQ(stageItems(a), stageItems(b));
    EXPECT_EQ(a.polls, b.polls);
}

TEST(Shard, PinnedPlanPaysTransfersAndConserves)
{
    auto app = makeApp("ldpc", AppScale::Small);
    Pipeline& pipe = app->pipeline();
    DeviceConfig dev = DeviceConfig::byName("gtx1080");
    // Coarse pipeline: one group per stage, so round-robin pinning
    // puts alternate stages on alternate devices.
    PipelineConfig cfg = makeCoarseConfig(pipe, dev);
    ShardPlan plan = ShardPlan::pinnedRoundRobin(cfg, pipe, 2);
    ASSERT_TRUE(plan.anyPinned());

    Engine single(dev);
    RunResult r1 = single.run(*app, cfg);
    ASSERT_TRUE(r1.completed);

    Engine group(twoGtx1080());
    RunResult r2 = group.runSharded(*app, cfg, plan);
    ASSERT_TRUE(r2.completed) << r2.failureReason;

    EXPECT_EQ(stageItems(r1), stageItems(r2));
    // Cross-device queue hops pay real transfers.
    EXPECT_GT(r2.interconnect.transfers, 0u);
    EXPECT_GT(r2.interconnect.bytes, 0.0);
    EXPECT_EQ(r2.interconnect.delivered, r2.interconnect.transfers);
    EXPECT_GT(r2.interconnect.serializeCycles, 0.0);
}

TEST(Shard, HostStagedCostsMoreThanPeer)
{
    auto app = makeApp("ldpc", AppScale::Small);
    Pipeline& pipe = app->pipeline();
    DeviceConfig dev = DeviceConfig::byName("gtx1080");
    PipelineConfig cfg = makeCoarseConfig(pipe, dev);
    ShardPlan plan = ShardPlan::pinnedRoundRobin(cfg, pipe, 2);

    DeviceGroupConfig peer = twoGtx1080();
    peer.interconnect.kind = InterconnectConfig::Kind::Peer;
    DeviceGroupConfig staged = twoGtx1080();
    staged.interconnect.kind = InterconnectConfig::Kind::HostStaged;

    RunResult rp = Engine(peer).runSharded(*app, cfg, plan);
    RunResult rs = Engine(staged).runSharded(*app, cfg, plan);
    ASSERT_TRUE(rp.completed);
    ASSERT_TRUE(rs.completed);
    EXPECT_EQ(stageItems(rp), stageItems(rs));
    // Same transfers, slower links: host staging can only hurt.
    EXPECT_GE(rs.cycles, rp.cycles);
    EXPECT_GT(rs.interconnect.serializeCycles,
              rp.interconnect.serializeCycles);
}

TEST(Shard, TwoDevicesSpeedUpAParallelWorkload)
{
    auto app = makeApp("raster", AppScale::Small);
    PipelineConfig cfg = makeMegakernelConfig(app->pipeline());
    ShardPlan plan = ShardPlan::replicateAll(app->pipeline());

    Engine single(DeviceConfig::byName("gtx1080"));
    RunResult r1 = single.run(*app, cfg);
    Engine group(twoGtx1080());
    RunResult r2 = group.runSharded(*app, cfg, plan);
    ASSERT_TRUE(r1.completed);
    ASSERT_TRUE(r2.completed);
    EXPECT_LT(r2.cycles, r1.cycles)
        << "2 devices should beat 1 on a throughput workload";
}

TEST(Shard, SmKillOnOneDeviceDoesNotWedgeTheGroup)
{
    auto app = makeApp("raster", AppScale::Small);
    PipelineConfig cfg = makeMegakernelConfig(app->pipeline());
    ShardPlan plan = ShardPlan::replicateAll(app->pipeline());

    FaultPlan fp;
    SmFaultEvent kill;
    kill.time = 2000.0;
    kill.sm = 0;
    kill.kind = SmFaultEvent::Kind::Kill;
    kill.device = 1;
    fp.smEvents.push_back(kill);

    Engine group(twoGtx1080());
    group.setFaultPlan(fp);
    group.setRecovery(RecoveryConfig{});
    RunResult r = group.runSharded(*app, cfg, plan);
    // The group must finish (possibly degraded), never stall.
    EXPECT_TRUE(r.outcome == RunOutcome::Completed
                || r.outcome == RunOutcome::Degraded)
        << runOutcomeName(r.outcome) << "\n" << r.failureReason;
    ASSERT_EQ(r.shardDevices.size(), 2u);
    EXPECT_EQ(r.shardDevices[0].device.smsFailed, 0u);
    EXPECT_EQ(r.shardDevices[1].device.smsFailed, 1u);
}

TEST(Shard, GroupCountsRedeliveriesOfEveryDevice)
{
    // The SM kill on device 1 evicts batches of raster's retryable
    // stages, so every redelivery of the run happens on device 1;
    // the group's count must include them. At 25000 cycles device
    // 1's blocks are mid-batch (probed; the first assertion guards
    // drift).
    auto app = makeApp("raster", AppScale::Small);
    PipelineConfig cfg = makeMegakernelConfig(app->pipeline());
    ShardPlan plan = ShardPlan::replicateAll(app->pipeline());

    FaultPlan fp;
    SmFaultEvent kill;
    kill.time = 25000.0;
    kill.sm = 0;
    kill.kind = SmFaultEvent::Kind::Kill;
    kill.device = 1;
    fp.smEvents.push_back(kill);

    Engine group(twoGtx1080());
    group.setFaultPlan(fp);
    group.setRecovery(RecoveryConfig{});
    RunResult r = group.runSharded(*app, cfg, plan);
    ASSERT_GT(r.faults.tasksRetried, 0u)
        << "no retryable batch was in flight at the kill; move it";
    // One redelivery per evicted batch, each of at least one item.
    double redeliveries = r.extra.get("redeliveries");
    EXPECT_GT(redeliveries, 0.0);
    EXPECT_LE(redeliveries, static_cast<double>(r.faults.blocksEvicted));
    EXPECT_LE(redeliveries, static_cast<double>(r.faults.tasksRetried));
}

TEST(Shard, FaultPlanTargetingDeviceOneIsRejectedSingleDevice)
{
    auto app = makeApp("pyramid", AppScale::Small);
    PipelineConfig cfg = makeMegakernelConfig(app->pipeline());
    FaultPlan fp;
    SmFaultEvent kill;
    kill.device = 1;
    fp.smEvents.push_back(kill);
    Engine single(DeviceConfig::byName("gtx1080"));
    single.setFaultPlan(fp);
    EXPECT_THROW(single.run(*app, cfg), FatalError);
}
