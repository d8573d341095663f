/**
 * @file
 * Application tests: item-size invariants from Table 2, per-app
 * structural properties, and correctness of each application under
 * the baseline and VersaPipe execution models (small scale).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>

#include "apps/cfd/cfd_app.hh"
#include "apps/facedetect/facedetect_app.hh"
#include "apps/ldpc/ldpc_app.hh"
#include "apps/pyramid/pyramid_app.hh"
#include "apps/raster/raster_app.hh"
#include "apps/registry.hh"
#include "apps/reyes/reyes_app.hh"
#include "apps/vidstream/vidstream_app.hh"

using namespace vp;

TEST(Apps, Table2ItemSizes)
{
    // Table 2 itemSz column: 12, 16, 272, 12, 4, 12 bytes.
    EXPECT_EQ(sizeof(pyramid::PyrItem), 12u);
    EXPECT_EQ(sizeof(facedetect::FdItem), 16u);
    EXPECT_EQ(sizeof(reyes::PatchItem), 272u);
    EXPECT_EQ(sizeof(cfd::CfdItem), 12u);
    EXPECT_EQ(sizeof(raster::RasterItem), 4u);
    EXPECT_EQ(sizeof(ldpc::LdpcItem), 12u);
}

TEST(Apps, Table1StageCountsAndStructures)
{
    // Table 1: stage counts 3/5/3/3/3/4 and structures.
    struct Want { const char* name; int stages;
                  PipelineStructure structure; };
    Want wants[] = {
        {"pyramid", 3, PipelineStructure::Recursion},
        {"facedetect", 5, PipelineStructure::Recursion},
        {"reyes", 3, PipelineStructure::Recursion},
        {"cfd", 3, PipelineStructure::Loop},
        {"raster", 3, PipelineStructure::Linear},
        {"ldpc", 4, PipelineStructure::Loop},
    };
    for (const Want& w : wants) {
        auto app = makeApp(w.name, AppScale::Small);
        EXPECT_EQ(app->pipeline().stageCount(), w.stages) << w.name;
        EXPECT_EQ(app->pipeline().structure(), w.structure)
            << w.name;
    }
}

TEST(Apps, RegistryRejectsUnknownName)
{
    EXPECT_THROW(makeApp("doom"), FatalError);
}

TEST(Apps, PyramidProducesVerifiedLevels)
{
    pyramid::PyramidApp app(pyramid::PyrParams::small());
    Engine engine(DeviceConfig::k20c());
    auto r = engine.run(app, makeKbkConfig());
    EXPECT_TRUE(r.completed);
    // 640x360 with minDim 24: levels 640,320,160,80,40 wide.
    EXPECT_EQ(app.levelCount(), 4);
    EXPECT_EQ(app.levelDims(1).first, 320);
}

TEST(Apps, PyramidWorkloadShrinksPerLevel)
{
    pyramid::PyramidApp app(pyramid::PyrParams::small());
    // Paper: resize workload varies by large factors across levels.
    EXPECT_GT(app.bandsInLevel(0), app.bandsInLevel(3));
}

TEST(Apps, FaceDetectFindsFacesAndVerifies)
{
    facedetect::FaceDetectApp app(facedetect::FdParams::small());
    Engine engine(DeviceConfig::k20c());
    auto r = engine.run(app, makeKbkConfig());
    EXPECT_TRUE(r.completed);
    // The synthetic cascade detects the planted markers.
    EXPECT_GT(app.detections().size(), 0u);
    // Scanning dominates item counts (one item per window).
    EXPECT_GT(r.stages[4].items, 1000u);
}

TEST(Apps, ReyesSplitsRecursivelyAndVerifies)
{
    reyes::ReyesApp app(reyes::ReyesParams::small());
    Engine engine(DeviceConfig::k20c());
    auto r = engine.run(app, makeMegakernelConfig(app.pipeline()));
    EXPECT_TRUE(r.completed);
    // Recursion: more split tasks than seed patches, and every
    // diced patch is shaded.
    EXPECT_GT(r.stages[0].items,
              static_cast<std::uint64_t>(app.params().patches));
    EXPECT_EQ(r.stages[1].items, r.stages[2].items);
    EXPECT_GT(app.dicedPatches(), app.params().patches);
}

TEST(Apps, ReyesFramebufferNonEmpty)
{
    reyes::ReyesApp app(reyes::ReyesParams::small());
    Engine engine(DeviceConfig::k20c());
    engine.run(app, makeMegakernelConfig(app.pipeline()));
    int lit = 0;
    for (std::uint32_t v : app.framebuffer())
        lit += v != 0;
    EXPECT_GT(lit, 100);
}

TEST(Apps, CfdConvergesIdenticallyToReference)
{
    cfd::CfdApp app(cfd::CfdParams::small());
    Engine engine(DeviceConfig::k20c());
    auto r = engine.run(app, makeKbkConfig());
    EXPECT_TRUE(r.completed); // bitwise-equal density field
    // Wave structure: every stage ran blocks x expected-wave counts.
    auto blocks = static_cast<std::uint64_t>(app.blocks());
    auto outer = static_cast<std::uint64_t>(app.params().outerIters);
    auto inner = static_cast<std::uint64_t>(app.params().innerIters);
    EXPECT_EQ(r.stages[0].items, blocks * outer);
    EXPECT_EQ(r.stages[1].items, blocks * outer * inner);
    EXPECT_EQ(r.stages[2].items, blocks * outer * inner);
}

TEST(Apps, CfdKbkLaunchesSevenKernelsPerOuterIteration)
{
    // Paper sec 8.3: 14000 kernel calls for 2000 outer iterations.
    cfd::CfdParams p = cfd::CfdParams::small();
    p.outerIters = 5;
    cfd::CfdApp app(p);
    Engine engine(DeviceConfig::k20c());
    auto r = engine.run(app, makeKbkConfig());
    EXPECT_EQ(r.device.kernelLaunches,
              static_cast<std::uint64_t>(7 * p.outerIters));
}

TEST(Apps, RasterDrawsAndVerifies)
{
    raster::RasterApp app(raster::RasterParams::small());
    Engine engine(DeviceConfig::k20c());
    auto r = engine.run(app, makeKbkConfig());
    EXPECT_TRUE(r.completed);
    // Back-face culling drops roughly half the triangles.
    EXPECT_GT(app.trianglesDrawn(), 0);
    EXPECT_LT(app.trianglesDrawn(), app.triangles());
}

TEST(Apps, RasterKbkRtcMixValidates)
{
    // The paper's Rasterization baseline fuses Clip+Interpolate into
    // one RTC kernel under KBK sequencing.
    raster::RasterApp app(raster::RasterParams::small());
    PipelineConfig cfg = makeKbkConfig();
    StageGroup fused, shade;
    fused.stages = {0, 1};
    fused.model = ExecModel::RTC;
    shade.stages = {2};
    shade.model = ExecModel::Megakernel;
    cfg.groups = {fused, shade};
    Engine engine(DeviceConfig::k20c());
    auto r = engine.run(app, cfg);
    EXPECT_TRUE(r.completed);
    // Fused: interpolate's queue sees no traffic.
    EXPECT_EQ(r.stages[1].queue.pushes, 0u);
}

TEST(Apps, LdpcDecodesAndVerifies)
{
    ldpc::LdpcApp app(ldpc::LdpcParams::small());
    Engine engine(DeviceConfig::k20c());
    auto r = engine.run(app, makeKbkConfig());
    EXPECT_TRUE(r.completed);
    // Min-sum corrects most frames at 3% crossover.
    EXPECT_GT(app.correctedFrames(), app.params().frames / 2);
    // Iteration structure: C2V ran frames x iterations times.
    EXPECT_EQ(r.stages[1].items,
              static_cast<std::uint64_t>(app.params().frames
                                         * app.params().iterations));
}

TEST(Apps, ReyesDiceRegisterPressureMatchesPaper)
{
    // Paper sec 8.3: Megakernel Reyes consumes 255 regs -> 1
    // block/SM; per-stage kernels allow 2/1/4 blocks.
    reyes::ReyesApp app(reyes::ReyesParams::small());
    auto merged = mergedResources(app.pipeline(), {0, 1, 2});
    EXPECT_EQ(merged.regsPerThread, 255);
    EXPECT_EQ(app.pipeline().stage(0).resources.regsPerThread, 111);
    EXPECT_EQ(app.pipeline().stage(2).resources.regsPerThread, 61);
}

// Every app completes and verifies under every applicable model.
class AllAppsAllModels
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{};

TEST_P(AllAppsAllModels, CompletesAndVerifies)
{
    auto [name, model] = GetParam();
    auto app = makeApp(name, AppScale::Small);
    Pipeline& pipe = app->pipeline();
    DeviceConfig dev = DeviceConfig::k20c();
    PipelineConfig cfg;
    try {
        switch (model) {
          case 0:
            if (pipe.hasCycle()) {
                GTEST_SKIP()
                    << "RTC infeasible for recursive pipelines";
            }
            cfg = makeRtcConfig(pipe);
            break;
          case 1: cfg = makeKbkConfig(); break;
          case 2: cfg = makeMegakernelConfig(pipe); break;
          case 3: cfg = makeCoarseConfig(pipe, dev); break;
          case 4: cfg = makeFineConfig(pipe, dev); break;
        }
    } catch (const FatalError& e) {
        // Pure fine pipelines whose stages cannot co-reside on one
        // SM are legitimately infeasible (paper: fine groups are
        // chosen by the tuner, not forced over whole pipelines).
        GTEST_SKIP() << e.what();
    }
    Engine engine(dev);
    auto r = engine.run(*app, cfg);
    EXPECT_TRUE(r.completed) << name << " under " << r.configName;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AllAppsAllModels,
    ::testing::Combine(
        ::testing::Values("pyramid", "facedetect", "reyes", "cfd",
                          "raster", "ldpc"),
        ::testing::Range(0, 5)));

// ------------------------------------------------------------------
// App kernels against the formulations they replaced, bit for bit.
// ldpc's and pyramid's cost() do not read the data, so golden cycles
// would not catch a drift in these.

namespace {

/** Per-pixel LBP code with every neighbour coordinate clamped. */
std::uint8_t
lbpCodeClamped(const GrayImage& img, int x, int y)
{
    static const int dx[8] = {-1, 0, 1, 1, 1, 0, -1, -1};
    static const int dy[8] = {-1, -1, -1, 0, 1, 1, 1, 0};
    std::uint8_t center = img.at(x, y);
    std::uint8_t code = 0;
    for (int k = 0; k < 8; ++k) {
        int nx = std::clamp(x + dx[k], 0, img.width() - 1);
        int ny = std::clamp(y + dy[k], 0, img.height() - 1);
        if (img.at(nx, ny) >= center)
            code |= std::uint8_t(1) << k;
    }
    return code;
}

/** O(dc^2) normalized min-sum: per output edge, a pass over the
 *  other edges. */
void
minSumPerEdge(const std::vector<float>& v2c, std::vector<float>& c2v,
              int dc)
{
    for (std::size_t base = 0; base < v2c.size(); base += dc) {
        for (int k = 0; k < dc; ++k) {
            float sign = 1.0f;
            float mag = 1e30f;
            for (int j = 0; j < dc; ++j) {
                if (j == k)
                    continue;
                float m = v2c[base + j];
                sign *= (m < 0.0f) ? -1.0f : 1.0f;
                mag = std::min(mag, std::fabs(m));
            }
            c2v[base + k] = 0.8f * sign * mag;
        }
    }
}

std::uint32_t
bits(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof u);
    return u;
}

} // namespace

TEST(AppKernels, LbpRowsMatchClampedPerPixelCodes)
{
    const std::pair<int, int> sizes[] = {
        {1, 1}, {1, 6}, {6, 1}, {2, 2}, {3, 3}, {4, 7}, {37, 23}};
    Rng rng(11);
    for (auto [w, h] : sizes) {
        // Full range, and three levels so that ties (>=) are common.
        for (std::uint32_t levels : {256u, 3u}) {
            GrayImage src(w, h);
            for (std::uint8_t& p : src.pixels())
                p = static_cast<std::uint8_t>(rng.nextBelow(levels));
            GrayImage codes(w, h);
            // Band by band, as FdFeature runs it.
            for (int y0 = 0; y0 < h; y0 += 4)
                facedetect::lbpRows(src, codes, y0,
                                    std::min(h, y0 + 4));
            for (int y = 0; y < h; ++y) {
                for (int x = 0; x < w; ++x) {
                    EXPECT_EQ(codes.at(x, y),
                              lbpCodeClamped(src, x, y))
                        << w << "x" << h << " at " << x << "," << y;
                }
            }
        }
    }
}

TEST(AppKernels, TwoMinimumMatchesPerEdgeMinSum)
{
    // Few distinct magnitudes give ties; zeros of both signs and
    // large values exercise the sign rule and the 1e30 sentinel.
    const float pool[] = {0.0f, -0.0f, 1.5f, -1.5f, 0.25f, -0.25f,
                          4.0f, -4.0f, 3e30f, -7.125f};
    Rng rng(23);
    for (int dc : {1, 2, 6}) {
        for (int trial = 0; trial < 200; ++trial) {
            std::vector<float> v2c(static_cast<std::size_t>(dc) * 16);
            for (float& m : v2c) {
                m = rng.nextBool(0.7)
                    ? pool[rng.nextBelow(std::size(pool))]
                    : static_cast<float>(rng.nextRange(-9.0, 9.0));
            }
            std::vector<float> want(v2c.size(), 2.0f);
            std::vector<float> got(v2c.size(), 2.0f);
            minSumPerEdge(v2c, want, dc);
            ldpc::minSumC2v(v2c, got, dc);
            for (std::size_t e = 0; e < v2c.size(); ++e)
                ASSERT_EQ(bits(got[e]), bits(want[e]))
                    << "dc " << dc << " trial " << trial << " edge "
                    << e << ": " << got[e] << " vs " << want[e];
        }
    }
}

// ------------------------------------------------------------------
// Malformed parameters end in ErrorCode::Config, not a hang or trap.

namespace {

template <typename App, typename Params>
void
expectConfigError(const Params& params)
{
    try {
        App app(params);
        ADD_FAILURE() << "parameters accepted";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config) << e.what();
    }
}

} // namespace

TEST(AppParams, FaceDetectRejectsZeroMinDim)
{
    // Would loop forever in levelCount().
    facedetect::FdParams p = facedetect::FdParams::small();
    p.minDim = 0;
    expectConfigError<facedetect::FaceDetectApp>(p);
}

TEST(AppParams, FaceDetectRejectsZeroBandRows)
{
    // Would divide by zero in bandsInLevel().
    facedetect::FdParams p = facedetect::FdParams::small();
    p.bandRows = 0;
    expectConfigError<facedetect::FaceDetectApp>(p);
}

TEST(AppParams, FaceDetectRejectsZeroStride)
{
    // Would loop forever in the feature join.
    facedetect::FdParams p = facedetect::FdParams::small();
    p.stride = 0;
    expectConfigError<facedetect::FaceDetectApp>(p);
}

TEST(AppParams, FaceDetectRejectsWindowBelowTwo)
{
    // Would divide by zero (window / 2) in the cascade's ring.
    for (int window : {1, 0, -4}) {
        facedetect::FdParams p = facedetect::FdParams::small();
        p.window = window;
        expectConfigError<facedetect::FaceDetectApp>(p);
    }
}

TEST(AppParams, LdpcRejectsZeroCheckDegree)
{
    // Would divide by zero checking that edges split into checks.
    ldpc::LdpcParams p = ldpc::LdpcParams::small();
    p.checkDeg = 0;
    expectConfigError<ldpc::LdpcApp>(p);
}

TEST(AppParams, LdpcRejectsNegativeFrames)
{
    // Would size the per-frame vectors from a negative count.
    ldpc::LdpcParams p = ldpc::LdpcParams::small();
    p.frames = -3;
    expectConfigError<ldpc::LdpcApp>(p);
}

TEST(AppParams, PyramidRejectsZeroMinDimAndBandRows)
{
    // The same levelCount() hang and bandsInLevel() division.
    pyramid::PyrParams p = pyramid::PyrParams::small();
    p.minDim = 0;
    expectConfigError<pyramid::PyramidApp>(p);
    p = pyramid::PyrParams::small();
    p.bandRows = 0;
    expectConfigError<pyramid::PyramidApp>(p);
}

TEST(AppParams, CfdRejectsZeroBlockElems)
{
    // Would trap (SIGFPE) in the constructor's own divisibility check.
    cfd::CfdParams p = cfd::CfdParams::small();
    p.blockElems = 0;
    expectConfigError<cfd::CfdApp>(p);
    p = cfd::CfdParams::small();
    p.elements = p.blockElems + 1;
    expectConfigError<cfd::CfdApp>(p);
}

TEST(AppParams, CfdRejectsZeroIterations)
{
    // The pipeline always runs one step set; the reference would run
    // none, so the output could never verify.
    cfd::CfdParams p = cfd::CfdParams::small();
    p.outerIters = 0;
    expectConfigError<cfd::CfdApp>(p);
    p = cfd::CfdParams::small();
    p.innerIters = 0;
    expectConfigError<cfd::CfdApp>(p);
}

TEST(AppParams, RasterRejectsZeroTile)
{
    // Would trap (SIGFPE) counting tiles.
    raster::RasterParams p = raster::RasterParams::small();
    p.tile = 0;
    expectConfigError<raster::RasterApp>(p);
}

TEST(AppParams, RasterRejectsNonPositiveFramebuffer)
{
    // A negative width sized the framebuffer from a negative count
    // (an untyped std::length_error).
    for (int width : {-256, 0}) {
        raster::RasterParams p = raster::RasterParams::small();
        p.width = width;
        expectConfigError<raster::RasterApp>(p);
    }
    raster::RasterParams p = raster::RasterParams::small();
    p.height = -1;
    expectConfigError<raster::RasterApp>(p);
    p = raster::RasterParams::small();
    p.cubes = 0;
    expectConfigError<raster::RasterApp>(p);
}

TEST(AppParams, ReyesRejectsBadSizes)
{
    reyes::ReyesParams p = reyes::ReyesParams::small();
    p.grid = 1;
    expectConfigError<reyes::ReyesApp>(p);
    p = reyes::ReyesParams::small();
    p.patches = 0;
    expectConfigError<reyes::ReyesApp>(p);
    p = reyes::ReyesParams::small();
    p.width = -8;
    expectConfigError<reyes::ReyesApp>(p);
}

TEST(AppParams, VidstreamRejectsBadSizes)
{
    vidstream::VsParams p = vidstream::VsParams::small();
    p.cameras = 0;
    expectConfigError<vidstream::VidstreamApp>(p);
    p = vidstream::VsParams::small();
    p.width = p.roi - 1;
    expectConfigError<vidstream::VidstreamApp>(p);
}
