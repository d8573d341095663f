/**
 * @file
 * Differential conformance suite: every registry application crossed
 * with every execution model — and, for persistent-block (Groups)
 * configurations, with the 1-device engine vs. a 2-device group
 * under each default shard plan — must produce the same output
 * fingerprint. The fingerprint is the per-stage processed-item total
 * (items + dead-lettered), so a pass means exact work conservation:
 * no model and no device split may lose, duplicate, or invent work.
 * Every run's verify() must also pass (RunResult::completed).
 *
 * The degeneracy lane pins the shared Supervisor: a 1-device group
 * must replay the single-device run exactly, with and without
 * supervision armed.
 *
 * Runs under the `conformance` ctest label.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "apps/registry.hh"
#include "core/adaptive.hh"
#include "core/engine.hh"
#include "core/recovery.hh"
#include "core/shard.hh"
#include "obs/obs.hh"

using namespace vp;

namespace {

/**
 * Every execution model applicable to @p pipe on @p dev, labeled.
 * Mirrors the tuner's model coverage: host-sequenced KBK (single and
 * multi-stream), megakernel (shared and distributed queues), coarse
 * and fine persistent pipelines, RTC where the pipeline is acyclic,
 * and dynamic parallelism.
 */
std::vector<std::pair<std::string, PipelineConfig>>
allModels(Pipeline& pipe, const DeviceConfig& dev)
{
    std::vector<std::pair<std::string, PipelineConfig>> out;
    out.emplace_back("kbk", makeKbkConfig());
    out.emplace_back("kbk-stream", makeKbkStreamConfig(3));
    out.emplace_back("megakernel", makeMegakernelConfig(pipe));
    auto dist = makeMegakernelConfig(pipe);
    dist.distributedQueues = true;
    out.emplace_back("megakernel-dq", std::move(dist));
    if (dev.numSms >= pipe.stageCount())
        out.emplace_back("coarse", makeCoarseConfig(pipe, dev));
    try {
        out.emplace_back("fine", makeFineConfig(pipe, dev));
    } catch (const FatalError&) {
        // Too many stages for the device's SM budget; skip.
    }
    if (!pipe.hasCycle())
        out.emplace_back("rtc", makeRtcConfig(pipe));
    out.emplace_back("dp", makeDynamicParallelismConfig());
    return out;
}

/**
 * The conformance fingerprint of one run: the per-stage processed
 * item totals. Dead-lettered items count as processed (they were
 * consumed, deliberately) so fault-free runs and the totals stay
 * comparable across models.
 */
std::map<std::string, std::uint64_t>
fingerprint(const RunResult& r)
{
    std::map<std::string, std::uint64_t> fp;
    for (const StageRunStats& s : r.stages)
        fp[s.name] = s.items + s.deadLettered;
    return fp;
}

std::string
describeFp(const std::map<std::string, std::uint64_t>& fp)
{
    std::ostringstream out;
    for (const auto& [name, items] : fp)
        out << name << "=" << items << " ";
    return out.str();
}

class Conformance : public ::testing::TestWithParam<std::string>
{};

} // namespace

// Model conformance: every execution model processes exactly the
// same per-stage work and passes application verification. The KBK
// baseline defines the reference fingerprint.
TEST_P(Conformance, AllModelsAgreeOnEveryStagesWork)
{
    DeviceConfig dev = DeviceConfig::byName("gtx1080");
    auto app = makeApp(GetParam(), AppScale::Small);
    Engine engine(dev);

    bool first = true;
    std::map<std::string, std::uint64_t> want;
    int covered = 0;
    for (auto& [label, cfg] : allModels(app->pipeline(), dev)) {
        RunResult r = engine.run(*app, cfg);
        ASSERT_TRUE(r.completed)
            << GetParam() << "/" << label << ": " << r.failureReason;
        auto fp = fingerprint(r);
        if (first) {
            want = fp;
            first = false;
        } else {
            EXPECT_EQ(fp, want)
                << GetParam() << "/" << label << "\n got "
                << describeFp(fp) << "\nwant " << describeFp(want);
        }
        ++covered;
    }
    // KBK + streams + megakernel (x2) + DP always apply.
    EXPECT_GE(covered, 5) << GetParam();
}

// Device conformance: for every Groups model, a 2-device group under
// each default shard plan reproduces the single-device fingerprint
// exactly — splitting the pipeline over the interconnect must not
// change what work happens, only where.
TEST_P(Conformance, TwoDeviceShardsMatchSingleDevice)
{
    DeviceConfig dev = DeviceConfig::byName("gtx1080");
    auto app = makeApp(GetParam(), AppScale::Small);
    Pipeline& pipe = app->pipeline();
    Engine single(dev);
    Engine group(DeviceGroupConfig::homogeneous(dev, 2));

    int covered = 0;
    for (auto& [label, cfg] : allModels(pipe, dev)) {
        if (cfg.top != PipelineConfig::Top::Groups)
            continue;
        RunResult r1 = single.run(*app, cfg);
        ASSERT_TRUE(r1.completed) << GetParam() << "/" << label;
        auto want = fingerprint(r1);
        for (const ShardPlan& plan :
             defaultShardPlans(cfg, pipe, 2)) {
            RunResult r2 = group.runSharded(*app, cfg, plan);
            ASSERT_TRUE(r2.completed)
                << GetParam() << "/" << label << "/"
                << plan.describe() << ": " << r2.failureReason;
            EXPECT_EQ(fingerprint(r2), want)
                << GetParam() << "/" << label << "/"
                << plan.describe() << "\n got "
                << describeFp(fingerprint(r2)) << "\nwant "
                << describeFp(want);
            ++covered;
        }
    }
    // Megakernel (x2) always shards under replicate at minimum.
    EXPECT_GE(covered, 2) << GetParam();
}

// Degeneracy: a 1-device group under replicateAll is the same
// simulation as a plain run, so both engine entry points must hand
// the Supervisor identical runs — once with nothing armed (the
// unsupervised fast path) and once with the drain timeout, sampler
// and adaptive epochs slicing the run. Distributed-queue configs
// are the documented exception: a plain run seeds each whole flow
// onto queue shard f % numSms, while the group coordinator routes
// item by item onto shard ordinal % numSms, so their cycles differ
// and only the work fingerprint must agree.
TEST_P(Conformance, SingleDeviceGroupIsDegenerate)
{
    DeviceConfig dev = DeviceConfig::byName("gtx1080");
    auto app = makeApp(GetParam(), AppScale::Small);
    Pipeline& pipe = app->pipeline();
    ShardPlan plan = ShardPlan::replicateAll(pipe);

    auto arm = [](Engine& e) {
        RecoveryConfig rc;
        rc.drainTimeoutCycles = 1e8;
        e.setRecovery(rc);
        ObsConfig oc;
        oc.sampleIntervalCycles = 5000.0;
        e.setObservability(oc);
        AdaptiveConfig ac;
        ac.enabled = true;
        ac.epochCycles = 7000.0;
        e.setAdaptive(ac);
    };

    int exact = 0;
    int fingerprintOnly = 0;
    for (bool armed : {false, true}) {
        Engine single(dev);
        Engine group(DeviceGroupConfig::homogeneous(dev, 1));
        if (armed) {
            arm(single);
            arm(group);
        }
        for (auto& [label, cfg] : allModels(pipe, dev)) {
            if (cfg.top != PipelineConfig::Top::Groups)
                continue;
            std::string what = GetParam() + "/" + label
                + (armed ? "/armed" : "/plain");
            RunResult r1 = single.run(*app, cfg);
            RunResult r2 = group.runSharded(*app, cfg, plan);
            ASSERT_TRUE(r1.completed) << what << ": " << r1.failureReason;
            ASSERT_TRUE(r2.completed) << what << ": " << r2.failureReason;
            EXPECT_EQ(fingerprint(r2), fingerprint(r1)) << what;
            if (cfg.distributedQueues) {
                ++fingerprintOnly;
                continue;
            }
            EXPECT_EQ(r2.outcome, r1.outcome) << what;
            EXPECT_EQ(r2.cycles, r1.cycles) << what;
            EXPECT_EQ(r2.simEvents, r1.simEvents) << what;
            EXPECT_EQ(r2.polls, r1.polls) << what;
            ASSERT_EQ(r2.stages.size(), r1.stages.size()) << what;
            for (std::size_t s = 0; s < r1.stages.size(); ++s) {
                EXPECT_EQ(r2.stages[s].items, r1.stages[s].items)
                    << what << " stage " << r1.stages[s].name;
                EXPECT_EQ(r2.stages[s].batches, r1.stages[s].batches)
                    << what << " stage " << r1.stages[s].name;
            }
            ++exact;
        }
    }
    // Megakernel in both modes at minimum, plus its dq variant.
    EXPECT_GE(exact, 2) << GetParam();
    EXPECT_EQ(fingerprintOnly, 2) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Apps, Conformance,
                         ::testing::Values("pyramid", "facedetect",
                                           "reyes", "cfd", "raster",
                                           "ldpc", "vidstream"));
