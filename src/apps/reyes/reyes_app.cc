#include "apps/reyes/reyes_app.hh"

#include <algorithm>
#include <cmath>

#include "common/rng.hh"

namespace vp::reyes {

namespace {

/** De Casteljau split of 4 control values at t = 0.5. */
void
splitCubic(const float in[4], float lo[4], float hi[4])
{
    float a = (in[0] + in[1]) * 0.5f;
    float b = (in[1] + in[2]) * 0.5f;
    float c = (in[2] + in[3]) * 0.5f;
    float d = (a + b) * 0.5f;
    float e = (b + c) * 0.5f;
    float f = (d + e) * 0.5f;
    lo[0] = in[0];
    lo[1] = a;
    lo[2] = d;
    lo[3] = f;
    hi[0] = f;
    hi[1] = e;
    hi[2] = c;
    hi[3] = in[3];
}

/** Cubic Bezier evaluation. */
float
evalCubic(const float* p, int stride, float t)
{
    float u = 1.0f - t;
    return u * u * u * p[0] + 3 * u * u * t * p[stride]
        + 3 * u * t * t * p[2 * stride] + t * t * t * p[3 * stride];
}

} // namespace

std::pair<PatchItem, PatchItem>
splitPatch(const PatchItem& patch)
{
    // Split all 4 rows (or columns) of control points at t = 0.5.
    PatchItem a = patch, b = patch;
    a.depth = b.depth = patch.depth + 1;
    a.axis = b.axis = 1 - patch.axis;
    for (int c = 0; c < 3; ++c) {
        for (int row = 0; row < 4; ++row) {
            float in[4], lo[4], hi[4];
            for (int col = 0; col < 4; ++col) {
                int idx = patch.axis == 0 ? row * 4 + col
                                          : col * 4 + row;
                in[col] = patch.cp[idx][c];
            }
            splitCubic(in, lo, hi);
            for (int col = 0; col < 4; ++col) {
                int idx = patch.axis == 0 ? row * 4 + col
                                          : col * 4 + row;
                a.cp[idx][c] = lo[col];
                b.cp[idx][c] = hi[col];
            }
        }
    }
    return {a, b};
}

std::vector<float>
dicePatch(const PatchItem& patch, int grid)
{
    const int g = grid + 1;
    std::vector<float> pts(static_cast<std::size_t>(g) * g * 3);
    for (int i = 0; i < g; ++i) {
        float u = float(i) / (g - 1);
        // Evaluate the rows in u, once for the whole column ...
        float col[3][4];
        for (int c = 0; c < 3; ++c) {
            for (int row = 0; row < 4; ++row) {
                float rowpts[4] = {
                    patch.cp[row * 4 + 0][c],
                    patch.cp[row * 4 + 1][c],
                    patch.cp[row * 4 + 2][c],
                    patch.cp[row * 4 + 3][c],
                };
                col[c][row] = evalCubic(rowpts, 1, u);
            }
        }
        // ... then the column in v at each of its points.
        for (int j = 0; j < g; ++j) {
            float v = float(j) / (g - 1);
            float* pt = &pts[(static_cast<std::size_t>(j) * g + i) * 3];
            for (int c = 0; c < 3; ++c)
                pt[c] = evalCubic(col[c], 1, v);
        }
    }
    return pts;
}

ReyesParams
ReyesParams::small()
{
    ReyesParams p;
    p.patches = 8;
    p.width = 320;
    p.height = 180;
    p.maxDepth = 6;
    return p;
}

// ------------------------------ stages -------------------------- //

SplitStage::SplitStage(ReyesApp& app)
    : app_(app)
{
    name = "split";
    threadNum = 32;
    resources.regsPerThread = 111; // 2 blocks/SM (paper sec 8.3)
    resources.codeBytes = 14336;
    kbkHostBytesPerItem = 2.0 * sizeof(PatchItem); // CPU control
}

TaskCost
SplitStage::cost(const PatchItem&) const
{
    TaskCost c;
    c.computeInsts = 220.0; // bound 16 cps + two de Casteljau passes
    c.memInsts = 40.0;      // 272-byte patch in, two out
    c.l1HitRate = 0.55;
    return c;
}

void
SplitStage::execute(ExecContext& ctx, PatchItem& item)
{
    if (app_.diceable(item)) {
        ctx.enqueue<DiceStage>(item);
        return;
    }
    auto [a, b] = splitPatch(item);
    ctx.enqueue<SplitStage>(a);
    ctx.enqueue<SplitStage>(b);
}

DiceStage::DiceStage(ReyesApp& app)
    : app_(app)
{
    name = "dice";
    threadNum = 128;
    blockThreads = 128; // lets dice share an SM with split (sec 8.3)
    resources.regsPerThread = 255; // 1 block/SM (paper sec 8.3)
    resources.codeBytes = 20480;
}

TaskCost
DiceStage::cost(const PatchItem&) const
{
    int g = app_.params_.grid + 1;
    TaskCost c;
    // (grid+1)^2 surface evaluations over 128 threads.
    c.computeInsts = double(g) * g * 160.0 / 128.0;
    c.memInsts = double(g) * g * 24.0 / 128.0;
    c.l1HitRate = 0.60;
    return c;
}

void
DiceStage::execute(ExecContext& ctx, PatchItem& item)
{
    int grid_id = static_cast<int>(app_.grids_.size());
    app_.grids_.push_back(
        ReyesApp::Grid{dicePatch(item, app_.params_.grid)});
    ctx.enqueue<ShadeStage>(GridItem{grid_id, item.id});
}

ShadeStage::ShadeStage(ReyesApp& app)
    : app_(app)
{
    name = "shade";
    threadNum = 256;
    resources.regsPerThread = 61; // 4 blocks/SM (paper sec 8.3)
    resources.codeBytes = 10240;
}

TaskCost
ShadeStage::cost(const GridItem&) const
{
    int g = app_.params_.grid;
    TaskCost c;
    c.computeInsts = double(g) * g * 130.0 / 256.0;
    c.memInsts = double(g) * g * 20.0 / 256.0;
    c.l1HitRate = 0.50;
    return c;
}

void
ShadeStage::execute(ExecContext&, GridItem& item)
{
    app_.shadeGrid(app_.grids_[item.gridId], app_.fb_);
}

// ------------------------------ driver -------------------------- //

ReyesApp::ReyesApp(ReyesParams params)
    : params_(params)
{
    VP_CHECK(params_.patches > 0 && params_.grid >= 2
                 && params_.width > 0 && params_.height > 0,
             ErrorCode::Config,
             "reyes: patches, width and height must be positive and "
             "grid at least 2");
    pipe_.addStage<SplitStage>(*this);
    pipe_.addStage<DiceStage>(*this);
    pipe_.addStage<ShadeStage>(*this);
    pipe_.link<SplitStage, SplitStage>(); // recursion
    pipe_.link<SplitStage, DiceStage>();
    pipe_.link<DiceStage, ShadeStage>();
    pipe_.setStructure(PipelineStructure::Recursion);

    // Teapot-like scene: curved patches at varying distances and
    // sizes, so split depth varies per patch (dynamic workload).
    Rng rng(params_.seed);
    for (int p = 0; p < params_.patches; ++p) {
        PatchItem patch{};
        double cx = rng.nextRange(-3.0, 3.0);
        double cy = rng.nextRange(-1.8, 1.8);
        double cz = rng.nextRange(5.0, 16.0);
        double size = rng.nextRange(0.6, 2.2);
        for (int j = 0; j < 4; ++j) {
            for (int i = 0; i < 4; ++i) {
                int idx = j * 4 + i;
                double u = i / 3.0 - 0.5, v = j / 3.0 - 0.5;
                patch.cp[idx][0] = float(cx + u * size);
                patch.cp[idx][1] = float(cy + v * size);
                // Curved surface: paraboloid bulge + ripple.
                patch.cp[idx][2] = float(
                    cz - (u * u + v * v) * size
                    + 0.3 * std::sin(u * 6 + p) * size);
                patch.cp[idx][3] = 1.0f;
            }
        }
        patch.depth = 0;
        patch.id = p;
        patch.axis = 0;
        initial_.push_back(patch);
    }
    reset();
}

void
ReyesApp::project(const float* xyz, double& sx, double& sy) const
{
    double z = std::max(0.1f, xyz[2]);
    double f = params_.height * 0.9;
    sx = xyz[0] / z * f + params_.width * 0.5;
    sy = xyz[1] / z * f + params_.height * 0.5;
}

double
ReyesApp::boundSize(const PatchItem& p) const
{
    double min_x = 1e30, max_x = -1e30, min_y = 1e30, max_y = -1e30;
    for (int i = 0; i < 16; ++i) {
        double sx, sy;
        project(p.cp[i], sx, sy);
        min_x = std::min(min_x, sx);
        max_x = std::max(max_x, sx);
        min_y = std::min(min_y, sy);
        max_y = std::max(max_y, sy);
    }
    return std::max(max_x - min_x, max_y - min_y);
}

bool
ReyesApp::diceable(const PatchItem& p) const
{
    return p.depth >= params_.maxDepth
        || boundSize(p) <= params_.diceBound;
}

void
ReyesApp::shadeGrid(const Grid& g, std::vector<std::uint32_t>& fb)
    const
{
    int n = params_.grid + 1;
    auto pt = [&](int i, int j) {
        return &g.pts[(static_cast<std::size_t>(j) * n + i) * 3];
    };
    for (int j = 0; j < n - 1; ++j) {
        for (int i = 0; i < n - 1; ++i) {
            const float* p00 = pt(i, j);
            const float* p10 = pt(i + 1, j);
            const float* p01 = pt(i, j + 1);
            // Face normal from the two grid tangents.
            float ux = p10[0] - p00[0], uy = p10[1] - p00[1],
                  uz = p10[2] - p00[2];
            float vx = p01[0] - p00[0], vy = p01[1] - p00[1],
                  vz = p01[2] - p00[2];
            float nx = uy * vz - uz * vy;
            float ny = uz * vx - ux * vz;
            float nz = ux * vy - uy * vx;
            float len = std::sqrt(nx * nx + ny * ny + nz * nz);
            if (len <= 1e-12f)
                continue;
            // Lambert against a fixed light direction.
            float lambert = std::max(
                0.0f, -(nx * 0.27f + ny * -0.53f + nz * -0.80f)
                          / len);
            // Splat the micropolygon's corner to the framebuffer.
            double sx, sy;
            project(p00, sx, sy);
            int x = static_cast<int>(sx);
            int y = static_cast<int>(sy);
            if (x < 0 || y < 0 || x >= params_.width
                || y >= params_.height)
                continue;
            // Depth-major packing, max-combined: nearer surfaces
            // (smaller z) win deterministically in any order.
            std::uint32_t inv_z = 0xFFFFFF
                - std::min(0xFFFFFFu,
                           static_cast<std::uint32_t>(p00[2] * 1000));
            std::uint32_t shade = static_cast<std::uint32_t>(
                lambert * 255.0f);
            std::uint32_t packed = (inv_z << 8) | shade;
            std::uint32_t& cell =
                fb[static_cast<std::size_t>(y) * params_.width + x];
            cell = std::max(cell, packed);
        }
    }
}

std::vector<std::uint32_t>
ReyesApp::renderReference() const
{
    std::vector<std::uint32_t> fb(
        static_cast<std::size_t>(params_.width) * params_.height, 0);
    // Depth-first and sequential, with the stages' kernels.
    std::vector<PatchItem> stack = initial_;
    while (!stack.empty()) {
        PatchItem item = stack.back();
        stack.pop_back();
        if (diceable(item)) {
            shadeGrid(Grid{dicePatch(item, params_.grid)}, fb);
        } else {
            auto [a, b] = splitPatch(item);
            stack.push_back(a);
            stack.push_back(b);
        }
    }
    return fb;
}

void
ReyesApp::reset()
{
    grids_.clear();
    fb_.assign(static_cast<std::size_t>(params_.width)
               * params_.height, 0);
}

void
ReyesApp::seedFlow(Seeder& seeder, int)
{
    seeder.insert<SplitStage>(initial_);
}

bool
ReyesApp::verify()
{
    if (!refBuilt_) {
        std::uint64_t h = 1469598103934665603ULL;
        for (std::uint32_t v : renderReference()) {
            h ^= v;
            h *= 1099511628211ULL;
        }
        refChecksum_ = h;
        refBuilt_ = true;
    }
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint32_t v : fb_) {
        h ^= v;
        h *= 1099511628211ULL;
    }
    return h == refChecksum_;
}

} // namespace vp::reyes
