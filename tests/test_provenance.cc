/**
 * @file
 * Item-provenance tests: passivity (an armed run is bit-identical to
 * a plain one), lineage conservation (every tracked item resolves to
 * exactly one terminal fate) across clean runs, retries, retry
 * exhaustion, SM kills and whole-device failover, the exact
 * wait+service+transfer == end-to-end decomposition invariant, the
 * critical path naming interconnect links on multi-device plans, and
 * the seed-sampling knob.
 */

#include <gtest/gtest.h>

#include "apps/registry.hh"
#include "core/engine.hh"
#include "core/recovery.hh"
#include "core/shard.hh"
#include "obs/obs.hh"
#include "sim/fault.hh"
#include "toy_apps.hh"

using namespace vp;
using namespace vp::test;

namespace {

/** Provenance armed, tracer off: the leanest armed configuration. */
ObsConfig
provConfig(std::uint64_t sampleEvery = 1)
{
    ObsConfig oc;
    oc.trace = false;
    oc.sampleIntervalCycles = 0.0;
    oc.provenance = true;
    oc.provenanceSampleEvery = sampleEvery;
    return oc;
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

/**
 * The conservation + invariant core: every tracked record reached a
 * terminal fate exactly once (fates partition the record set, nothing
 * is Open) and the latency decomposition is exact.
 */
void
expectProvenanceConserved(const RunResult& r)
{
    ASSERT_TRUE(r.obs && r.obs->provenance);
    const ProvenanceTracker& pv = *r.obs->provenance;
    EXPECT_EQ(pv.countByFate(ItemFate::Open), 0u);
    EXPECT_EQ(pv.countByFate(ItemFate::Completed)
                  + pv.countByFate(ItemFate::DeadLettered)
                  + pv.countByFate(ItemFate::Dropped),
              pv.records().size());
    for (std::size_t i = 0; i < pv.records().size(); ++i)
        EXPECT_NE(pv.records()[i].fate, ItemFate::Open)
            << "item " << (i + 1) << " never resolved";
    EXPECT_DOUBLE_EQ(pv.maxInvariantError(), 0.0);
}

DeviceGroupConfig
groupOf(int n)
{
    return DeviceGroupConfig::homogeneous(
        DeviceConfig::byName("gtx1080"), n);
}

FaultPlan
killDeviceAt(int device, Tick time)
{
    FaultPlan fp;
    DeviceFaultEvent e;
    e.time = time;
    e.device = device;
    fp.deviceEvents.push_back(e);
    return fp;
}

} // namespace

// ------------------------- passivity ---------------------------- //

TEST(Provenance, ArmedRunIsBitIdentical)
{
    // The acceptance scenario: a provenance-enabled raster run must
    // be bit-identical to a disabled one — same event sequence, same
    // virtual clock, same per-stage fingerprint.
    auto app = makeApp("raster", AppScale::Small);
    PipelineConfig cfg = makeCoarseConfig(
        app->pipeline(), DeviceConfig::byName("gtx1080"));

    Engine plain(DeviceConfig::byName("gtx1080"));
    RunResult base = plain.run(*app, cfg);
    ASSERT_TRUE(base.completed) << base.failureReason;

    Engine armed(DeviceConfig::byName("gtx1080"));
    armed.setObservability(provConfig());
    RunResult traced = armed.run(*app, cfg);
    ASSERT_TRUE(traced.completed) << traced.failureReason;

    EXPECT_EQ(base.simEvents, traced.simEvents);
    EXPECT_DOUBLE_EQ(base.cycles, traced.cycles);
    EXPECT_EQ(stageItems(base), stageItems(traced));
    EXPECT_GT(traced.obs->provenance->records().size(), 0u);
}

TEST(Provenance, ArmedRunIsBitIdenticalUnderFaults)
{
    // Passivity must survive the fault/retry machinery too: the
    // tracker observes redeliveries and dead-letters without
    // disturbing the fault RNG or the retry timers.
    FaultPlan plan;
    plan.seed = 5;
    plan.taskFailProb = 0.05;
    RecoveryConfig rc;
    rc.maxRetries = 8;

    LinearApp app1(2, 64);
    Engine plain(DeviceConfig::k20c());
    plain.setFaultPlan(plan);
    plain.setRecovery(rc);
    RunResult base =
        plain.run(app1, makeMegakernelConfig(app1.pipeline()));

    LinearApp app2(2, 64);
    Engine armed(DeviceConfig::k20c());
    armed.setFaultPlan(plan);
    armed.setRecovery(rc);
    armed.setObservability(provConfig());
    RunResult traced =
        armed.run(app2, makeMegakernelConfig(app2.pipeline()));

    EXPECT_EQ(base.simEvents, traced.simEvents);
    EXPECT_DOUBLE_EQ(base.cycles, traced.cycles);
    EXPECT_EQ(stageItems(base), stageItems(traced));
    EXPECT_GT(base.faults.tasksRetried, 0u);
}

// ------------------------- conservation ------------------------- //

TEST(Provenance, CleanRunsConserveAcrossAllModels)
{
    Engine engine(DeviceConfig::k20c());
    engine.setObservability(provConfig());

    std::vector<PipelineConfig> configs;
    {
        LinearApp probe;
        configs.push_back(makeMegakernelConfig(probe.pipeline()));
        configs.push_back(makeKbkConfig());
        configs.push_back(makeFineConfig(probe.pipeline(),
                                         engine.deviceConfig()));
        configs.push_back(makeDynamicParallelismConfig());
    }
    for (const PipelineConfig& cfg : configs) {
        LinearApp app(2, 64);
        RunResult r = engine.run(app, cfg);
        ASSERT_TRUE(r.completed)
            << r.configName << ": " << r.failureReason;
        const ProvenanceTracker& pv = *r.obs->provenance;
        EXPECT_EQ(pv.seedsSeen(),
                  static_cast<std::uint64_t>(app.totalItems()))
            << r.configName;
        EXPECT_EQ(pv.seedsTracked(), pv.seedsSeen()) << r.configName;
        // A clean run completes everything it tracks.
        EXPECT_EQ(pv.countByFate(ItemFate::Completed),
                  pv.records().size())
            << r.configName;
        expectProvenanceConserved(r);
        // Each non-seed stage's item was minted from a tracked
        // parent, so lineage chains reach all the way back.
        std::uint64_t withParent = 0;
        for (const ItemRecord& rec : pv.records())
            if (rec.parent != 0)
                ++withParent;
        EXPECT_GT(withParent, 0u) << r.configName;
    }
}

TEST(Provenance, RetriedItemsResolveOnce)
{
    FaultPlan plan;
    plan.seed = 5;
    plan.taskFailProb = 0.05;
    RecoveryConfig rc;
    rc.maxRetries = 8; // ample: nothing should dead-letter

    Engine engine(DeviceConfig::k20c());
    engine.setFaultPlan(plan);
    engine.setRecovery(rc);
    engine.setObservability(provConfig());

    LinearApp app(2, 64);
    RunResult r = engine.run(app, makeMegakernelConfig(app.pipeline()));
    ASSERT_TRUE(r.completed) << r.failureReason;
    EXPECT_GT(r.faults.tasksRetried, 0u);
    const ProvenanceTracker& pv = *r.obs->provenance;
    // Retried items re-queue and complete exactly once; redelivery
    // must not mint duplicate records or leave Open ghosts.
    EXPECT_EQ(pv.countByFate(ItemFate::Completed), pv.records().size());
    expectProvenanceConserved(r);
}

TEST(Provenance, RetryExhaustionDeadLettersEverySeed)
{
    FaultPlan plan;
    plan.seed = 3;
    plan.taskFailProb = 1.0; // every fetch faults: nothing survives
    RecoveryConfig rc;
    rc.maxRetries = 2;
    rc.backoffBaseCycles = 100.0;

    LinearApp app(1, 16);
    Engine engine(DeviceConfig::k20c());
    engine.setFaultPlan(plan);
    engine.setRecovery(rc);
    engine.setObservability(provConfig());
    RunResult r = engine.run(app, makeMegakernelConfig(app.pipeline()));

    EXPECT_EQ(r.outcome, RunOutcome::Degraded);
    const ProvenanceTracker& pv = *r.obs->provenance;
    // Exactly the 16 seeds were tracked (no batch ever committed a
    // child) and every one of them burned its budget into the
    // dead-letter fate.
    EXPECT_EQ(pv.records().size(), 16u);
    EXPECT_EQ(pv.countByFate(ItemFate::DeadLettered), 16u);
    expectProvenanceConserved(r);
}

TEST(Provenance, FailedItemsStayOpenUntilTheirLastTry)
{
    // A fetch-faulted item shares its batch with items that execute
    // and commit; only those complete at the commit. The failed one
    // stays open until a later try executes it or its budget runs
    // out, so every dead letter in the ledger is a traced one. The
    // long backoff lets each batch commit before its failed items
    // come back.
    FaultPlan plan;
    plan.seed = 4;
    plan.taskFailProb = 0.3;
    RecoveryConfig rc;
    rc.maxRetries = 1;
    rc.backoffBaseCycles = 20000.0;
    rc.backoffCapCycles = 20000.0;

    LinearApp app(2, 64);
    Engine engine(DeviceConfig::k20c());
    engine.setFaultPlan(plan);
    engine.setRecovery(rc);
    engine.setObservability(provConfig());
    RunResult r = engine.run(app, makeMegakernelConfig(app.pipeline()));

    EXPECT_EQ(r.outcome, RunOutcome::Degraded);
    EXPECT_GT(r.faults.tasksRetried, 0u);
    const ProvenanceTracker& pv = *r.obs->provenance;
    EXPECT_EQ(pv.countByFate(ItemFate::DeadLettered),
              r.faults.deadLettered);
    expectProvenanceConserved(r);
}

TEST(Provenance, DroppedPushesResolveAsDropped)
{
    FaultPlan plan;
    plan.seed = 9;
    plan.pushDropProb = 0.1;
    plan.pushCorruptProb = 0.1;

    LinearApp app(2, 64);
    Engine engine(DeviceConfig::k20c());
    engine.setFaultPlan(plan);
    engine.setObservability(provConfig());
    RunResult r = engine.run(app, makeMegakernelConfig(app.pipeline()));

    EXPECT_EQ(r.outcome, RunOutcome::Degraded);
    const ProvenanceTracker& pv = *r.obs->provenance;
    EXPECT_EQ(pv.countByFate(ItemFate::Dropped),
              r.faults.droppedPushes);
    EXPECT_EQ(pv.countByFate(ItemFate::DeadLettered),
              r.faults.corruptedPushes);
    expectProvenanceConserved(r);
}

TEST(Provenance, SmKillConserves)
{
    FaultPlan plan;
    plan.seed = 11;
    SmFaultEvent kill;
    kill.time = 5000.0;
    kill.sm = 3;
    kill.kind = SmFaultEvent::Kind::Kill;
    plan.smEvents.push_back(kill);
    RecoveryConfig rc;
    rc.maxRetries = 6;

    LinearApp app(2, 64);
    Engine engine(DeviceConfig::k20c());
    engine.setFaultPlan(plan);
    engine.setRecovery(rc);
    engine.setObservability(provConfig());
    RunResult r = engine.run(app, makeMegakernelConfig(app.pipeline()));
    ASSERT_TRUE(r.completed) << r.failureReason;
    // Items captured on the killed SM are redelivered elsewhere and
    // must still resolve exactly once.
    expectProvenanceConserved(r);
}

TEST(Provenance, DeviceFailoverConserves)
{
    auto app = makeApp("raster", AppScale::Small);
    Pipeline& pipe = app->pipeline();
    PipelineConfig cfg =
        makeCoarseConfig(pipe, DeviceConfig::byName("gtx1080"));
    ShardPlan plan = ShardPlan::pinnedRoundRobin(cfg, pipe, 2);
    ASSERT_TRUE(plan.anyPinned());

    // 24000 lands mid-flight with items resident on device 1 (same
    // probe as the failover suite's acceptance scenario).
    Engine group(groupOf(2));
    group.setFaultPlan(killDeviceAt(1, 24000.0));
    group.setRecovery(RecoveryConfig{});
    group.setObservability(provConfig());
    RunResult r = group.runSharded(*app, cfg, plan);

    EXPECT_EQ(r.outcome, RunOutcome::Degraded)
        << runOutcomeName(r.outcome) << "\n" << r.failureReason;
    EXPECT_GT(r.faults.itemsEvacuated, 0u);
    // Evacuation, re-homing and transfer redelivery shuffle items
    // between devices, but no lineage may be lost or double-counted.
    expectProvenanceConserved(r);
}

// ------------------------- decomposition ------------------------ //

TEST(Provenance, DecompositionTilesEndToEnd)
{
    auto app = makeApp("raster", AppScale::Small);
    Engine engine(DeviceConfig::byName("gtx1080"));
    engine.setObservability(provConfig());
    RunResult r = engine.run(
        *app, makeCoarseConfig(app->pipeline(),
                               DeviceConfig::byName("gtx1080")));
    ASSERT_TRUE(r.completed) << r.failureReason;

    const ProvenanceTracker& pv = *r.obs->provenance;
    EXPECT_DOUBLE_EQ(pv.maxInvariantError(), 0.0);
    for (const ItemRecord& rec : pv.records()) {
        ASSERT_EQ(rec.fate, ItemFate::Completed);
        // The invariant, spelled out: buckets partition the
        // end-to-end interval exactly, with no negative residue.
        EXPECT_DOUBLE_EQ(rec.waitCycles + rec.serviceCycles
                             + rec.transferCycles,
                         rec.e2e());
        EXPECT_GE(rec.waitCycles, 0.0);
        EXPECT_GE(rec.serviceCycles, 0.0);
        EXPECT_GE(rec.transferCycles, 0.0);
        EXPECT_FALSE(rec.hops.empty());
    }
    // The per-stage rollup covers every wait and service hop.
    std::uint64_t hops = 0;
    for (const ItemRecord& rec : pv.records())
        hops += rec.hops.size();
    std::uint64_t rolled = 0;
    for (const StageDecomposition& d : pv.stageDecomposition())
        rolled += d.waits + d.services;
    EXPECT_LE(rolled, hops);
    EXPECT_GT(rolled, 0u);

    // finalize() folded per-item latencies into the metrics registry.
    const auto& hist = r.obs->metrics.histograms();
    auto it = hist.find("prov/e2e_cycles");
    ASSERT_NE(it, hist.end());
    EXPECT_EQ(it->second.count(),
              pv.countByFate(ItemFate::Completed));
}

// ------------------------- critical path ------------------------ //

TEST(Provenance, CriticalPathNamesInterconnectOnPinnedPlan)
{
    // Acceptance: on a 2-device pinned plan the critical path must
    // attribute at least one segment to an interconnect link.
    auto app = makeApp("raster", AppScale::Small);
    Pipeline& pipe = app->pipeline();
    PipelineConfig cfg =
        makeCoarseConfig(pipe, DeviceConfig::byName("gtx1080"));
    ShardPlan plan = ShardPlan::pinnedRoundRobin(cfg, pipe, 2);

    Engine group(groupOf(2));
    group.setObservability(provConfig());
    RunResult r = group.runSharded(*app, cfg, plan);
    ASSERT_TRUE(r.completed) << r.failureReason;

    const ProvenanceTracker& pv = *r.obs->provenance;
    expectProvenanceConserved(r);
    std::vector<PathSegment> path = pv.criticalPath();
    ASSERT_FALSE(path.empty());

    bool sawTransfer = false;
    for (std::size_t i = 0; i < path.size(); ++i) {
        if (path[i].label.rfind("transfer:", 0) == 0)
            sawTransfer = true;
        EXPECT_DOUBLE_EQ(path[i].cycles, path[i].t1 - path[i].t0);
        if (i > 0) { // the chain's hops abut: no gaps, no overlap
            EXPECT_DOUBLE_EQ(path[i].t0, path[i - 1].t1);
        }
    }
    EXPECT_TRUE(sawTransfer)
        << "no interconnect segment on a pinned 2-device path";

    // The ranked rollup aggregates the same time the path covers.
    double pathCycles = 0.0;
    for (const PathSegment& s : path)
        pathCycles += s.cycles;
    double rankedCycles = 0.0;
    for (const auto& [label, cycles] : pv.rankedCriticalSegments())
        rankedCycles += cycles;
    EXPECT_DOUBLE_EQ(rankedCycles, pathCycles);
    // topN truncates but never reorders: the head entry dominates.
    auto top1 = pv.rankedCriticalSegments(1);
    ASSERT_EQ(top1.size(), 1u);
    EXPECT_EQ(top1[0].first, pv.rankedCriticalSegments()[0].first);
}

TEST(Provenance, CriticalPathEndsAtLastCompletion)
{
    LinearApp app(2, 64);
    Engine engine(DeviceConfig::k20c());
    engine.setObservability(provConfig());
    RunResult r = engine.run(app, makeMegakernelConfig(app.pipeline()));
    ASSERT_TRUE(r.completed);

    const ProvenanceTracker& pv = *r.obs->provenance;
    std::vector<PathSegment> path = pv.criticalPath();
    ASSERT_FALSE(path.empty());
    Tick lastDone = 0.0;
    for (const ItemRecord& rec : pv.records())
        if (rec.fate == ItemFate::Completed)
            lastDone = std::max(lastDone, rec.done);
    EXPECT_DOUBLE_EQ(path.back().t1, lastDone);
    // The path starts at (or after) some seed's birth, within the run.
    EXPECT_GE(path.front().t0, 0.0);
    EXPECT_LE(path.back().t1, r.cycles);
}

// ------------------------- sampling ----------------------------- //

TEST(Provenance, SamplingTracksEveryKthSeedLineage)
{
    LinearApp app(2, 64);
    Engine engine(DeviceConfig::k20c());
    engine.setObservability(provConfig(/*sampleEvery=*/4));
    RunResult r = engine.run(app, makeMegakernelConfig(app.pipeline()));
    ASSERT_TRUE(r.completed);

    const ProvenanceTracker& pv = *r.obs->provenance;
    std::uint64_t seeds =
        static_cast<std::uint64_t>(app.totalItems());
    EXPECT_EQ(pv.seedsSeen(), seeds);
    EXPECT_EQ(pv.seedsTracked(), (seeds + 3) / 4); // every 4th
    // Children inherit tracking, so sampled lineages stay complete:
    // every record still resolves, and untracked seeds contribute
    // nothing at all.
    EXPECT_GT(pv.records().size(), pv.seedsTracked());
    expectProvenanceConserved(r);

    // Sampling must not perturb the run either.
    LinearApp plain(2, 64);
    Engine bare(DeviceConfig::k20c());
    RunResult base =
        bare.run(plain, makeMegakernelConfig(plain.pipeline()));
    EXPECT_EQ(base.simEvents, r.simEvents);
    EXPECT_DOUBLE_EQ(base.cycles, r.cycles);
}

TEST(Provenance, SamplingPhaseResetsBetweenRuns)
{
    // Run-reset-run equality: the tracker (and its seedsSeen_
    // counter, which drives the sampling phase) lives in the per-run
    // ObsData, so run 2 on a reused engine must sample exactly the
    // seeds run 1 did — no stride-phase leakage across runs — and
    // both must equal a fresh engine's first run.
    LinearApp app(2, 64);
    Engine reused(DeviceConfig::k20c());
    reused.setObservability(provConfig(/*sampleEvery=*/3));
    PipelineConfig cfg = makeMegakernelConfig(app.pipeline());
    RunResult r1 = reused.run(app, cfg);
    RunResult r2 = reused.run(app, cfg);
    ASSERT_TRUE(r1.completed);
    ASSERT_TRUE(r2.completed);

    LinearApp freshApp(2, 64);
    Engine fresh(DeviceConfig::k20c());
    fresh.setObservability(provConfig(/*sampleEvery=*/3));
    RunResult rf =
        fresh.run(freshApp, makeMegakernelConfig(freshApp.pipeline()));
    ASSERT_TRUE(rf.completed);

    const ProvenanceTracker& a = *r1.obs->provenance;
    const ProvenanceTracker& b = *r2.obs->provenance;
    const ProvenanceTracker& c = *rf.obs->provenance;
    EXPECT_EQ(b.seedsSeen(), a.seedsSeen());
    EXPECT_EQ(b.seedsTracked(), a.seedsTracked());
    EXPECT_EQ(b.records().size(), a.records().size());
    EXPECT_EQ(c.seedsSeen(), b.seedsSeen());
    EXPECT_EQ(c.seedsTracked(), b.seedsTracked());
    EXPECT_EQ(c.records().size(), b.records().size());
    // The phase restarts at seed 1 each run: every run sees the
    // app's full seed count and samples every 3rd from the start.
    EXPECT_EQ(b.seedsSeen(),
              static_cast<std::uint64_t>(app.totalItems()));
    EXPECT_EQ(b.seedsTracked(), (b.seedsSeen() + 2) / 3);
    expectProvenanceConserved(r2);
}
