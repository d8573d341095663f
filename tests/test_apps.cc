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
#include <limits>

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
    // Completed includes verify(): the density field equals the
    // sequential reference's bit for bit. Both run the same kernels;
    // PinnedOutputs pins their values.
    EXPECT_TRUE(r.completed);
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
// Payload outputs, pinned. The cost() of cfd, raster and reyes does
// not read the data and verify() compares against a reference built
// from the same kernels, so neither golden cycles nor verification
// would see a kernel change that moved a single bit. These values
// were measured before the kernels were rewritten for speed; any
// rewrite must reproduce them exactly.

namespace {

std::uint64_t
fnvWords(const auto& words)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (auto v : words) {
        h ^= v;
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
fnvImage(const RgbImage& img)
{
    std::vector<std::uint8_t> bytes;
    for (int y = 0; y < img.height(); ++y)
        bytes.insert(bytes.end(), img.row(y),
                     img.row(y) + img.width() * 3);
    return fnvWords(bytes);
}

} // namespace

TEST(PinnedOutputs, SmallMegakernelRunsOnK20c)
{
    Engine engine(DeviceConfig::k20c());

    cfd::CfdApp cfd_app(cfd::CfdParams::small());
    EXPECT_TRUE(engine.run(cfd_app, makeMegakernelConfig(
                                        cfd_app.pipeline())).completed);
    EXPECT_EQ(cfd_app.densityChecksum(), 0xa8548ad4ac0dea64ULL);

    raster::RasterApp raster_app(raster::RasterParams::small());
    EXPECT_TRUE(engine.run(raster_app, makeMegakernelConfig(
                                           raster_app.pipeline()))
                    .completed);
    EXPECT_EQ(fnvWords(raster_app.framebuffer()), 0xfab74152c303b4c5ULL);

    reyes::ReyesApp reyes_app(reyes::ReyesParams::small());
    EXPECT_TRUE(engine.run(reyes_app, makeMegakernelConfig(
                                          reyes_app.pipeline()))
                    .completed);
    EXPECT_EQ(fnvWords(reyes_app.framebuffer()), 0x6052bcaf39539909ULL);
}

TEST(PinnedOutputs, TestImageBytes)
{
    struct Want
    {
        int w, h;
        std::uint64_t plain, marked;
    };
    const Want wants[] = {
        {1, 1, 0xa1f55a4e148d1761ULL, 0xb177ad50615a5a4dULL},
        {1, 7, 0x4157eb6bcaaf9d10ULL, 0x14fb3dbf9ed08769ULL},
        {7, 1, 0x1752f2eb30eb5c29ULL, 0x2c8db5c6e0bb230dULL},
        {64, 48, 0x2d86d191a2c97e47ULL, 0xcdd6423a61efb411ULL},
        {640, 360, 0x8f79af8d262eb9b8ULL, 0x7ae17c5d3aaf51b9ULL},
    };
    for (const Want& want : wants) {
        // Markers on two corners and straddling two edges.
        std::vector<std::pair<int, int>> faces = {
            {0, 0}, {want.w - 1, want.h - 1}, {want.w + 5, want.h / 2},
            {want.w / 2, -7}};
        std::uint64_t seed = 20170505 + want.w * 1000 + want.h;
        EXPECT_EQ(fnvImage(makeTestImage(want.w, want.h, seed)),
                  want.plain)
            << want.w << "x" << want.h;
        EXPECT_EQ(fnvImage(makeTestImage(want.w, want.h, seed, faces)),
                  want.marked)
            << want.w << "x" << want.h << " with markers";
    }
}

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

std::uint64_t
bits(double d)
{
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof u);
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

namespace {

/** The input seed perfbench derives from an app's default seed at
 *  workload seed @p n (0 keeps the default). */
std::uint64_t
workloadSeed(std::uint64_t base, std::uint64_t n)
{
    return base + n * 0x9E3779B97F4A7C15ULL;
}

template <typename T>
bool
sameBits(const std::vector<T>& a, const std::vector<T>& b)
{
    return a.size() == b.size()
        && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/** cfd flux through a per-element neighbour table, element by
 *  element, over the whole mesh. */
void
fluxByNeighborTable(const std::vector<float>& vars,
                    std::vector<float>& flux, int blockElems)
{
    const int n = static_cast<int>(vars.size() / cfd::kCfdVars);
    std::vector<std::int32_t> neighbors(static_cast<std::size_t>(n) * 4);
    const int strides[4] = {1, -1, 37, -37};
    const int be = blockElems;
    for (int e = 0; e < n; ++e) {
        int base = (e / be) * be;
        int local = e - base;
        for (int k = 0; k < 4; ++k) {
            int nb = base + ((local + strides[k]) % be + be) % be;
            neighbors[static_cast<std::size_t>(e) * 4 + k] = nb;
        }
    }
    for (int e = 0; e < n; ++e) {
        float acc[cfd::kCfdVars] = {0, 0, 0, 0, 0};
        for (int k = 0; k < 4; ++k) {
            int nb = neighbors[static_cast<std::size_t>(e) * 4 + k];
            for (int v = 0; v < cfd::kCfdVars; ++v) {
                float mine = vars[v * n + e];
                float theirs = vars[v * n + nb];
                acc[v] += 0.5f * (theirs - mine)
                    - 0.1f * (theirs + mine)
                          * (k < 2 ? 1.0f : -1.0f);
            }
        }
        for (int v = 0; v < cfd::kCfdVars; ++v)
            flux[static_cast<std::size_t>(v) * n + e] = acc[v];
    }
}

/** cfd Euler update element by element, variables innermost. */
void
timeStepPerElement(std::vector<float>& vars, const std::vector<float>& sf,
                   const std::vector<float>& flux)
{
    const std::size_t n = sf.size();
    for (std::size_t e = 0; e < n; ++e) {
        float factor = sf[e] * 0.05f;
        for (int v = 0; v < cfd::kCfdVars; ++v)
            vars[v * n + e] += factor * flux[v * n + e];
    }
}

/** The new flux kernel over every composite of the mesh. */
void
fluxByComposites(const std::vector<float>& vars, std::vector<float>& flux,
                 int blockElems)
{
    const int n = static_cast<int>(vars.size() / cfd::kCfdVars);
    for (int e0 = 0; e0 < n; e0 += blockElems)
        cfd::computeFlux(vars, flux, e0, e0 + blockElems);
}

/** Raster shading of a whole tile, every pixel's edge functions
 *  evaluated. */
void
shadeWholeTile(const raster::ScreenTri& t, std::int32_t tri, int tx,
               int ty, const raster::RasterParams& p,
               std::vector<std::uint64_t>& fb)
{
    double x0 = t.x[0], y0 = t.y[0];
    double x1 = t.x[1], y1 = t.y[1];
    double x2 = t.x[2], y2 = t.y[2];
    double area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0);
    if (area <= 0.0)
        return;
    int px0 = tx * p.tile;
    int py0 = ty * p.tile;
    int px1 = std::min(p.width, px0 + p.tile);
    int py1 = std::min(p.height, py0 + p.tile);
    for (int y = py0; y < py1; ++y) {
        for (int x = px0; x < px1; ++x) {
            double cx = x + 0.5, cy = y + 0.5;
            double w0 = (x1 - cx) * (y2 - cy) - (x2 - cx) * (y1 - cy);
            double w1 = (x2 - cx) * (y0 - cy) - (x0 - cx) * (y2 - cy);
            double w2 = (x0 - cx) * (y1 - cy) - (x1 - cx) * (y0 - cy);
            if (w0 < 0 || w1 < 0 || w2 < 0)
                continue;
            double z = (w0 * t.z[0] + w1 * t.z[1] + w2 * t.z[2])
                / area;
            std::uint64_t zq = static_cast<std::uint64_t>(
                std::min(1e9, z * 1e4));
            std::uint64_t packed = (zq << 24)
                | static_cast<std::uint64_t>(tri);
            std::uint64_t& cell =
                fb[static_cast<std::size_t>(y) * p.width + x];
            cell = std::min(cell, packed);
        }
    }
}

/**
 * Shades tiles [tx0, tx1] x [ty0, ty1] of triangle @p tri with both
 * raster forms into framebuffers of ~0, compares each tile and clears
 * it again. Returns the pixels that differ; adds the covered ones to
 * @p covered.
 */
int
shadeBothForms(const raster::ScreenTri& t, std::int32_t tri,
               const raster::RasterParams& p, int tx0, int tx1, int ty0,
               int ty1, std::vector<std::uint64_t>& want,
               std::vector<std::uint64_t>& got, long& covered)
{
    int differ = 0;
    for (int ty = ty0; ty <= ty1; ++ty) {
        for (int tx = tx0; tx <= tx1; ++tx) {
            shadeWholeTile(t, tri, tx, ty, p, want);
            raster::shadeTriTile(t, tri, tx, ty, p, got);
            int y1 = std::min(p.height, (ty + 1) * p.tile);
            int x1 = std::min(p.width, (tx + 1) * p.tile);
            for (int y = ty * p.tile; y < y1; ++y) {
                for (int x = tx * p.tile; x < x1; ++x) {
                    std::size_t i =
                        static_cast<std::size_t>(y) * p.width + x;
                    differ += want[i] != got[i];
                    covered += want[i] != ~std::uint64_t(0);
                    want[i] = got[i] = ~std::uint64_t(0);
                }
            }
        }
    }
    return differ;
}

/** Cubic Bezier evaluation, as reyes' dice kernel does it. */
float
evalCubic(const float* p, float t)
{
    float u = 1.0f - t;
    return u * u * u * p[0] + 3 * u * u * t * p[1]
        + 3 * u * t * t * p[2] + t * t * t * p[3];
}

/** Reyes dice with all four row cubics evaluated at every point. */
std::vector<float>
dicePerPoint(const reyes::PatchItem& item, int grid)
{
    int g = grid + 1;
    std::vector<float> pts(static_cast<std::size_t>(g) * g * 3);
    for (int j = 0; j < g; ++j) {
        float v = float(j) / (g - 1);
        for (int i = 0; i < g; ++i) {
            float u = float(i) / (g - 1);
            for (int c = 0; c < 3; ++c) {
                float col[4];
                for (int row = 0; row < 4; ++row) {
                    float rowpts[4] = {
                        item.cp[row * 4 + 0][c],
                        item.cp[row * 4 + 1][c],
                        item.cp[row * 4 + 2][c],
                        item.cp[row * 4 + 3][c],
                    };
                    col[row] = evalCubic(rowpts, u);
                }
                pts[(static_cast<std::size_t>(j) * g + i) * 3 + c] =
                    evalCubic(col, v);
            }
        }
    }
    return pts;
}

} // namespace

TEST(AppKernels, CfdRingStridesMatchNeighborTableOnFullScaleRuns)
{
    // Two outer iterations of the full-scale mesh from the inputs of
    // workload seeds 0 and 7, every flux and update compared.
    for (std::uint64_t n : {0u, 7u}) {
        cfd::CfdParams p;
        p.seed = workloadSeed(p.seed, n);
        cfd::CfdApp app(p);
        std::vector<float> want = app.initialState();
        std::vector<float> got = want;
        std::vector<float> sf(p.elements);
        std::vector<float> flux_want(want.size()), flux_got(want.size());
        for (int outer = 0; outer < 2; ++outer) {
            cfd::computeStepFactor(want, sf, 0, p.elements);
            for (int inner = 0; inner < p.innerIters; ++inner) {
                fluxByNeighborTable(want, flux_want, p.blockElems);
                fluxByComposites(got, flux_got, p.blockElems);
                ASSERT_TRUE(sameBits(flux_got, flux_want))
                    << "seed " << n << " flux " << outer << "." << inner;
                timeStepPerElement(want, sf, flux_want);
                cfd::timeStep(got, sf, flux_got, 0, p.elements);
                ASSERT_TRUE(sameBits(got, want))
                    << "seed " << n << " step " << outer << "." << inner;
            }
        }
    }
}

TEST(AppKernels, CfdRingStridesMatchNeighborTableOnEdgeCases)
{
    // Composites shorter than, equal to and twice the long stride;
    // zeros of both signs, subnormals and large values that stay
    // finite through the sums.
    const float pool[] = {0.0f, -0.0f, 1e-40f, -1e-40f, 1.5f, -1.5f,
                          1e37f, -2.5e37f, 0.1f, -7.125f};
    Rng rng(31);
    for (int be : {1, 2, 37, 38, 74, 1024}) {
        for (int trial = 0; trial < 20; ++trial) {
            const int n = be * 3;
            std::vector<float> vars(
                static_cast<std::size_t>(n) * cfd::kCfdVars);
            for (float& x : vars) {
                x = rng.nextBool(0.5)
                    ? pool[rng.nextBelow(std::size(pool))]
                    : static_cast<float>(rng.nextRange(-9.0, 9.0));
            }
            std::vector<float> want(vars.size(), 2.0f);
            std::vector<float> got(vars.size(), 2.0f);
            fluxByNeighborTable(vars, want, be);
            fluxByComposites(vars, got, be);
            ASSERT_TRUE(sameBits(got, want))
                << "composite " << be << " trial " << trial;

            std::vector<float> sf(n);
            for (float& f : sf)
                f = pool[rng.nextBelow(std::size(pool))];
            std::vector<float> step_want = vars, step_got = vars;
            timeStepPerElement(step_want, sf, want);
            cfd::timeStep(step_got, sf, got, 0, n);
            ASSERT_TRUE(sameBits(step_got, step_want))
                << "composite " << be << " trial " << trial;
        }
    }
}

TEST(AppKernels, RasterRowSpansMatchWholeTilesOnFullScaleScenes)
{
    // Every triangle of the full-scale scenes of workload seeds 0 and
    // 7, culled ones included, over its tiles and a ring of tiles
    // around them.
    for (std::uint64_t n : {0u, 7u}) {
        raster::RasterParams p;
        p.seed = workloadSeed(p.seed, n);
        raster::RasterApp app(p);
        std::vector<std::uint64_t> want(
            static_cast<std::size_t>(p.width) * p.height,
            ~std::uint64_t(0));
        std::vector<std::uint64_t> got = want;
        auto tile_of = [&](double c, int tiles) {
            return static_cast<int>(
                std::clamp(std::floor(c / p.tile), 0.0, tiles - 1.0));
        };
        long covered = 0;
        for (int id = 0; id < app.triangles(); ++id) {
            raster::ScreenTri t = app.screenTri(id);
            int tx0 = tile_of(std::min({t.x[0], t.x[1], t.x[2]}),
                              app.tilesX());
            int tx1 = tile_of(std::max({t.x[0], t.x[1], t.x[2]}),
                              app.tilesX());
            int ty0 = tile_of(std::min({t.y[0], t.y[1], t.y[2]}),
                              app.tilesY());
            int ty1 = tile_of(std::max({t.y[0], t.y[1], t.y[2]}),
                              app.tilesY());
            ASSERT_EQ(shadeBothForms(t, id, p, std::max(0, tx0 - 1),
                                     std::min(app.tilesX() - 1, tx1 + 1),
                                     std::max(0, ty0 - 1),
                                     std::min(app.tilesY() - 1, ty1 + 1),
                                     want, got, covered),
                      0)
                << "seed " << n << " triangle " << id;
        }
        EXPECT_GT(covered, 100000) << "seed " << n;
    }
}

TEST(AppKernels, RasterRowSpansMatchWholeTilesOnEdgeCases)
{
    // 100 x 70 pixels: partial tiles along the right and bottom
    // border at both tile sizes.
    Rng rng(41);
    for (int tile : {32, 7}) {
        raster::RasterParams p;
        p.width = 100;
        p.height = 70;
        p.tile = tile;
        const int tiles_x = (p.width + tile - 1) / tile;
        const int tiles_y = (p.height + tile - 1) / tile;
        std::vector<std::uint64_t> want(
            static_cast<std::size_t>(p.width) * p.height,
            ~std::uint64_t(0));
        std::vector<std::uint64_t> got = want;
        long covered = 0;
        auto check = [&](raster::ScreenTri t, const char* what) {
            for (float& z : t.z)
                z = static_cast<float>(rng.nextRange(0.5, 40.0));
            // Both windings: the clockwise one shades nothing.
            for (int wind = 0; wind < 2; ++wind) {
                std::int32_t tri = static_cast<std::int32_t>(
                    rng.nextBelow(1u << 20));
                ASSERT_EQ(shadeBothForms(t, tri, p, 0, tiles_x - 1, 0,
                                         tiles_y - 1, want, got,
                                         covered),
                          0)
                    << what << " (" << t.x[0] << "," << t.y[0] << ") ("
                    << t.x[1] << "," << t.y[1] << ") (" << t.x[2] << ","
                    << t.y[2] << ") tile " << tile;
                std::swap(t.x[1], t.x[2]);
                std::swap(t.y[1], t.y[2]);
                std::swap(t.z[1], t.z[2]);
            }
        };
        auto coord = [&](double lo, double hi) {
            return static_cast<float>(rng.nextRange(lo, hi));
        };
        for (int trial = 0; trial < 300; ++trial) {
            raster::ScreenTri t;
            // Anywhere on and around the framebuffer.
            for (int v = 0; v < 3; ++v) {
                t.x[v] = coord(-30, 130);
                t.y[v] = coord(-30, 100);
            }
            check(t, "random");
            // Vertices on pixel centres and on pixel corners: edges
            // run through centres, where an edge function is 0.
            for (float offset : {0.5f, 0.0f}) {
                for (int v = 0; v < 3; ++v) {
                    t.x[v] = static_cast<float>(rng.nextBelow(120)) - 10
                        + offset;
                    t.y[v] = static_cast<float>(rng.nextBelow(90)) - 10
                        + offset;
                }
                check(t, "grid-aligned");
            }
            // Slivers: the third vertex within a hair of the line
            // through the other two.
            for (double hair : {1e-2, 1e-5, 1e-8, 0.0}) {
                double s = rng.nextRange(-0.5, 1.5);
                t.x[0] = coord(-10, 110);
                t.y[0] = coord(-10, 80);
                t.x[1] = coord(-10, 110);
                t.y[1] = coord(-10, 80);
                double dx = t.x[1] - t.x[0], dy = t.y[1] - t.y[0];
                t.x[2] = static_cast<float>(t.x[0] + s * dx - hair * dy);
                t.y[2] = static_cast<float>(t.y[0] + s * dy + hair * dx);
                check(t, "sliver");
            }
            // Near-horizontal and near-vertical edges.
            for (double tilt : {0.0, 1e-7, 1e-4, 1e-2}) {
                t.x[0] = coord(-50, 150);
                t.y[0] = coord(-5, 75);
                t.x[1] = coord(-50, 150);
                t.y[1] = static_cast<float>(t.y[0] + tilt);
                t.x[2] = coord(-10, 110);
                t.y[2] = coord(-10, 80);
                check(t, "near-horizontal");
                std::swap(t.x[0], t.y[0]);
                std::swap(t.x[1], t.y[1]);
                std::swap(t.x[2], t.y[2]);
                check(t, "near-vertical");
            }
            // Vertices far off screen.
            for (float far : {1e4f, 1e7f, 1e12f, 1e30f, 3e38f}) {
                for (int v = 0; v < 3; ++v) {
                    t.x[v] = coord(-10, 110);
                    t.y[v] = coord(-10, 80);
                }
                int v = static_cast<int>(rng.nextBelow(3));
                t.x[v] = rng.nextBool(0.5) ? far : -far;
                if (rng.nextBool(0.5))
                    t.y[v] = rng.nextBool(0.5) ? far : -far;
                check(t, "far vertex");
            }
        }
        // Non-finite vertices: the old loop's comparisons with NaN
        // are all false, so the span must give up, not guess.
        for (float bad : {std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()}) {
            raster::ScreenTri t;
            t.x[0] = 10;
            t.y[0] = 10;
            t.x[1] = 90;
            t.y[1] = 20;
            t.x[2] = bad;
            t.y[2] = 60;
            check(t, "non-finite x");
            t.x[2] = 50;
            t.y[2] = bad;
            check(t, "non-finite y");
        }
        EXPECT_GT(covered, 100000) << "tile " << tile;
    }
}

TEST(AppKernels, ReyesDiceOncePerColumnMatchesPerPointCubics)
{
    // The full-scale patches of workload seeds 0 and 7 and their
    // halves down to three splits, then patches of pooled values:
    // zeros of both signs and large values that stay finite.
    std::vector<reyes::PatchItem> patches;
    for (std::uint64_t n : {0u, 7u}) {
        reyes::ReyesParams p;
        p.seed = workloadSeed(p.seed, n);
        std::vector<reyes::PatchItem> level =
            reyes::ReyesApp(p).initialPatches();
        for (int depth = 0; depth < 4; ++depth) {
            patches.insert(patches.end(), level.begin(), level.end());
            std::vector<reyes::PatchItem> next;
            for (const reyes::PatchItem& patch : level) {
                auto [a, b] = reyes::splitPatch(patch);
                next.push_back(a);
                next.push_back(b);
            }
            level = std::move(next);
        }
    }
    const float pool[] = {0.0f, -0.0f, 1.0f, -1.0f, 1e-40f, 0.3f,
                          1e37f, -1e37f, 12.5f, -3.75f};
    Rng rng(53);
    for (int trial = 0; trial < 100; ++trial) {
        reyes::PatchItem patch{};
        for (auto& cp : patch.cp) {
            for (float& x : cp) {
                x = rng.nextBool(0.5)
                    ? pool[rng.nextBelow(std::size(pool))]
                    : static_cast<float>(rng.nextRange(-20.0, 20.0));
            }
        }
        patches.push_back(patch);
    }
    for (int grid = 2; grid <= 16; ++grid) {
        for (std::size_t i = 0; i < patches.size(); ++i) {
            ASSERT_TRUE(sameBits(reyes::dicePatch(patches[i], grid),
                                 dicePerPoint(patches[i], grid)))
                << "grid " << grid << " patch " << i;
        }
    }
}

TEST(AppKernels, VidstreamSignalCacheMatchesPureFunctions)
{
    // The stages read their signals through a VsSignalCache. Drive
    // one as a served stream would (every camera, frame after frame),
    // then in a seeded random order that jumps back and forth, over
    // frames past both VsParams::frames and the cache's depth of
    // 2 x filterWindow frames per camera. Every face count, luma,
    // sample and filtered value must be the pure function's, bit for
    // bit, for every face slot whether the walk has that face or not.
    for (bool small : {true, false}) {
        for (std::uint64_t n : {0u, 7u}) {
            vidstream::VsParams p =
                small ? vidstream::VsParams::small() : vidstream::VsParams{};
            p.seed = workloadSeed(p.seed, n);
            vidstream::VidstreamApp app(p);
            vidstream::VsSignalCache cache(app);
            cache.clear();
            const int frames = p.frames + 4 * p.filterWindow + 3;
            auto check = [&](int op, int cam, int frame, int face) {
                switch (op) {
                case 0:
                    ASSERT_EQ(cache.faceCount(cam, frame),
                              app.faceCount(cam, frame));
                    break;
                case 1:
                    ASSERT_EQ(bits(cache.lumaOf(cam, frame)),
                              bits(app.lumaOf(cam, frame)));
                    break;
                case 2:
                    ASSERT_EQ(bits(cache.sampleOf(cam, frame, face)),
                              bits(app.sampleOf(cam, frame, face)));
                    break;
                default:
                    ASSERT_EQ(bits(cache.filteredOf(cam, frame, face)),
                              bits(app.filteredOf(cam, frame, face)));
                }
            };
            for (int f = 0; f < frames; ++f) {
                for (int cam = 0; cam < p.cameras; ++cam) {
                    for (int op = 0; op < 4; ++op) {
                        for (int face = 0; face < p.maxFaces; ++face) {
                            check(op, cam, f, face);
                            ASSERT_FALSE(HasFatalFailure())
                                << "in order: op " << op << " cam "
                                << cam << " frame " << f << " face "
                                << face;
                        }
                    }
                }
            }
            Rng rng(59 + n);
            for (int i = 0; i < 4000; ++i) {
                int op = static_cast<int>(rng.nextBelow(4));
                int cam = static_cast<int>(
                    rng.nextBelow(static_cast<std::uint32_t>(p.cameras)));
                int frame = static_cast<int>(
                    rng.nextBelow(static_cast<std::uint32_t>(frames)));
                int face = static_cast<int>(
                    rng.nextBelow(static_cast<std::uint32_t>(p.maxFaces)));
                check(op, cam, frame, face);
                ASSERT_FALSE(HasFatalFailure())
                    << "out of order: op " << op << " cam " << cam
                    << " frame " << frame << " face " << face;
            }
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
