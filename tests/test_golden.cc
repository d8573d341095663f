/**
 * @file
 * Golden-corpus regression tests: every registry application at
 * small scale is run under a fixed configuration matrix (KBK
 * baseline, single-device megakernel, and a 2x GTX 1080 replicated
 * shard) and serialized — cycle count to full double precision
 * (%.17g), event count, polls, per-stage item totals — then compared
 * byte-for-byte against tests/golden/<app>.json.
 *
 * A mismatch means the simulation's observable behavior changed. If
 * the change is intentional, regenerate the corpus with
 * scripts/regen_golden.sh (which runs this binary with
 * GOLDEN_REGEN=1) and review the diff like any other code change.
 *
 * GOLDEN_DIR is injected by the build as the absolute path of the
 * in-tree corpus so regeneration writes back to the source tree.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "apps/registry.hh"
#include "core/engine.hh"
#include "core/shard.hh"

using namespace vp;

namespace {

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
appendRun(std::ostream& out, const std::string& label,
          const RunResult& r, bool last)
{
    out << "    \"" << label << "\": {\n"
        << "      \"cycles\": " << num(r.cycles) << ",\n"
        << "      \"sim_events\": " << r.simEvents << ",\n"
        << "      \"polls\": " << r.polls << ",\n"
        << "      \"stages\": {";
    for (std::size_t i = 0; i < r.stages.size(); ++i) {
        const StageRunStats& s = r.stages[i];
        out << (i ? ", " : "") << "\"" << s.name
            << "\": " << (s.items + s.deadLettered);
    }
    out << "}\n    }" << (last ? "\n" : ",\n");
}

/** The full golden document of one application. */
std::string
goldenFor(const std::string& app)
{
    DeviceConfig dev = DeviceConfig::byName("gtx1080");
    std::ostringstream out;
    out << "{\n  \"app\": \"" << app << "\",\n"
        << "  \"device\": \"" << dev.name << "\",\n"
        << "  \"runs\": {\n";

    {
        auto driver = makeApp(app, AppScale::Small);
        Engine engine(dev);
        RunResult r = engine.run(*driver, makeKbkConfig());
        EXPECT_TRUE(r.completed) << app << "/kbk";
        appendRun(out, "kbk", r, false);
    }
    {
        auto driver = makeApp(app, AppScale::Small);
        Engine engine(dev);
        RunResult r = engine.run(
            *driver, makeMegakernelConfig(driver->pipeline()));
        EXPECT_TRUE(r.completed) << app << "/megakernel";
        appendRun(out, "megakernel", r, false);
    }
    {
        auto driver = makeApp(app, AppScale::Small);
        Engine engine(DeviceGroupConfig::homogeneous(dev, 2));
        PipelineConfig cfg =
            makeMegakernelConfig(driver->pipeline());
        RunResult r = engine.runSharded(
            *driver, cfg,
            ShardPlan::replicateAll(driver->pipeline()));
        EXPECT_TRUE(r.completed) << app << "/megakernel-x2";
        appendRun(out, "megakernel-x2", r, true);
    }

    out << "  }\n}\n";
    return out.str();
}

std::string
goldenPath(const std::string& app)
{
    return std::string(GOLDEN_DIR) + "/" + app + ".json";
}

class Golden : public ::testing::TestWithParam<std::string>
{};

} // namespace

TEST_P(Golden, MatchesCorpus)
{
    const std::string app = GetParam();
    const std::string got = goldenFor(app);
    const std::string path = goldenPath(app);

    if (std::getenv("GOLDEN_REGEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << got;
        SUCCEED() << "regenerated " << path;
        return;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << path << " is missing; run scripts/regen_golden.sh";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << app << " diverged from its golden corpus entry. If the "
        << "change is intentional, run scripts/regen_golden.sh and "
        << "commit the diff.";
}

INSTANTIATE_TEST_SUITE_P(Apps, Golden,
                         ::testing::Values("pyramid", "facedetect",
                                           "reyes", "cfd", "raster",
                                           "ldpc", "vidstream"));
