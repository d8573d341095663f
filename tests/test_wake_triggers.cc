/**
 * @file
 * Engine-level scenarios, one per wake trigger of a parked block
 * (docs/MODEL.md, "Event engine internals"): a push, a drained watch
 * mask, an adaptive budget cut, an SM kill and remote work in a
 * device group. Each pins its cycles, events and polls, which are
 * those of an engine that dispatches every idle poll; a trigger that
 * fires late, early or never moves them.
 */

#include <gtest/gtest.h>

#include "core/shard.hh"
#include "toy_apps.hh"

using namespace vp;
using test::LinearApp;
using test::RecursiveApp;

namespace {

/** The counts the scenarios pin. */
void
expectCounts(const RunResult& r, double cycles, std::uint64_t events,
             std::uint64_t polls)
{
    ASSERT_TRUE(r.completed) << r.failureReason;
    EXPECT_EQ(r.cycles, cycles);
    EXPECT_EQ(r.simEvents, events);
    EXPECT_EQ(r.polls, polls);
    // Most of those polls were elided, not dispatched.
    EXPECT_LT(r.dispatchedEvents + polls / 2, r.simEvents);
}

} // namespace

TEST(WakeTriggers, PushWakesAParkedMegakernelBlock)
{
    // The recursive Figure 9 pipeline re-enqueues its items, so the
    // megakernel's parked blocks see pushes while others are busy:
    // each push wakes the earliest of them, and a wake that leaves
    // items behind wakes the next.
    RecursiveApp app(64);
    Engine engine(DeviceConfig::k20c());
    RunResult r = engine.run(app, makeMegakernelConfig(app.pipeline()));
    expectCounts(r, 31385.774999999998, 2547, 2439);
}

TEST(WakeTriggers, DrainRetiresAFinePipelineAtItsLastPoll)
{
    // Each fine stage's blocks retire once their watch mask drains,
    // each at its own next poll; the last of those sets the cycles.
    LinearApp app(2, 64);
    DeviceConfig dev = DeviceConfig::k20c();
    Engine engine(dev);
    RunResult r = engine.run(app, makeFineConfig(app.pipeline(), dev));
    expectCounts(r, 27729.902666666665, 659, 540);
}

TEST(WakeTriggers, BudgetCutWakesTheDonorsParkedBlocks)
{
    // The controller moves block budget between fine stages; the
    // donor's parked blocks over the cut budget wake and retreat, even
    // while their queues stay empty.
    DeviceConfig dev = DeviceConfig::k20c();
    RecursiveApp app(128);
    AdaptiveConfig ac;
    ac.enabled = true;
    ac.minDwellEpochs = 1;
    ac.hysteresis = 0.25;
    ac.epochCycles = 5000.0;
    Engine engine(dev);
    engine.setAdaptive(ac);
    RunResult r = engine.run(app, makeFineConfig(app.pipeline(), dev));
    EXPECT_GT(r.extra.get("adaptiveMoves"), 0.0);
    EXPECT_GT(r.retreats, 0u);
    expectCounts(r, 31114.0, 1955, 1632);
}

TEST(WakeTriggers, SmKillCancelsParkedBlocks)
{
    // SM 3 dies while a wake is pending on it: the evicted chains end
    // at the kill (the polls keyed before it still count) and the
    // next parked block of the set takes the cancelled wake's place.
    RecursiveApp app(64);
    FaultPlan plan;
    SmFaultEvent kill;
    kill.time = 16908.0;
    kill.sm = 3;
    plan.smEvents.push_back(kill);
    Engine engine(DeviceConfig::k20c());
    engine.setFaultPlan(plan);
    RunResult r = engine.run(app, makeMegakernelConfig(app.pipeline()));
    EXPECT_GT(r.faults.blocksEvicted, 0);
    expectCounts(r, 31401.674999999996, 2486, 2311);
}

TEST(WakeTriggers, RemoteWorkKeepsAPinnedDeviceParked)
{
    // Work is pinned to the second device: the first device's blocks
    // stay parked while the second runs Work and while transfers are
    // in flight, and retire only when the group drains.
    LinearApp app(2, 64);
    DeviceConfig dev = DeviceConfig::k20c();
    Engine group(DeviceGroupConfig::homogeneous(dev, 2));
    ShardPlan plan = ShardPlan::parse("pin:0,1,0", app.pipeline(), 2);
    RunResult r = group.runSharded(
        app, makeCoarseConfig(app.pipeline(), dev), plan);
    EXPECT_GT(r.interconnect.transfers, 0u);
    expectCounts(r, 25743.902666666665, 1258, 881);
}
