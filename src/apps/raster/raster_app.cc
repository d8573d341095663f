#include "apps/raster/raster_app.hh"

#include <algorithm>
#include <cmath>

#include "common/rng.hh"

namespace vp::raster {

namespace {

/** Unit cube corner positions. */
const float kCorners[8][3] = {
    {-1, -1, -1}, {1, -1, -1}, {1, 1, -1}, {-1, 1, -1},
    {-1, -1, 1},  {1, -1, 1},  {1, 1, 1},  {-1, 1, 1},
};

/** Cube faces as triangle corner indices. */
const int kFaces[12][3] = {
    {0, 1, 2}, {0, 2, 3}, {4, 6, 5}, {4, 7, 6},
    {0, 4, 5}, {0, 5, 1}, {3, 2, 6}, {3, 6, 7},
    {1, 5, 6}, {1, 6, 2}, {0, 3, 7}, {0, 7, 4},
};

} // namespace

RasterParams
RasterParams::small()
{
    RasterParams p;
    p.cubes = 12;
    p.width = 256;
    p.height = 192;
    return p;
}

// ------------------------------ stages -------------------------- //

ClipStage::ClipStage(RasterApp& app)
    : app_(app)
{
    name = "clip";
    threadNum = 1;
    resources.regsPerThread = 48;  // 5 blocks/SM
    resources.codeBytes = 6144;
}

TaskCost
ClipStage::cost(const RasterItem&) const
{
    TaskCost c;
    c.computeInsts = 55.0; // 3 vertex transforms + cull tests
    c.memInsts = 18.0;
    c.l1HitRate = 0.65;
    return c;
}

void
ClipStage::execute(ExecContext& ctx, RasterItem& item)
{
    app_.clipTri(item.id);
    if (!app_.screen_[item.id].culled) {
        ++app_.drawn_;
        ctx.enqueue<InterpolateStage>(item);
    }
}

InterpolateStage::InterpolateStage(RasterApp& app)
    : app_(app)
{
    name = "interpolate";
    threadNum = 1;
    retryable = true; // pure: reads geometry, emits tile items
    resources.regsPerThread = 72;  // 3 blocks/SM
    resources.codeBytes = 10240;
}

TaskCost
InterpolateStage::cost(const RasterItem& item) const
{
    int tiles = app_.tilesTouched(item.id, nullptr);
    TaskCost c;
    c.computeInsts = 40.0 + 16.0 * tiles; // edge setup + bbox walk
    c.memInsts = 12.0 + 3.0 * tiles;
    c.l1HitRate = 0.60;
    return c;
}

void
InterpolateStage::execute(ExecContext& ctx, RasterItem& item)
{
    std::vector<int> tiles;
    app_.tilesTouched(item.id, &tiles);
    int stride = app_.tilesX() * app_.tilesY();
    for (int t : tiles)
        ctx.enqueue<RShadeStage>(RasterItem{item.id * stride + t});
}

RShadeStage::RShadeStage(RasterApp& app)
    : app_(app)
{
    name = "shade";
    threadNum = 256;
    retryable = true; // depth-test min-write: idempotent
    resources.regsPerThread = 60;  // 4 blocks/SM
    resources.codeBytes = 8192;
}

TaskCost
RShadeStage::cost(const RasterItem&) const
{
    double px = double(app_.params_.tile) * app_.params_.tile / 256.0;
    TaskCost c;
    c.computeInsts = px * 85.0; // edge tests + z interpolation
    c.memInsts = px * 8.0;
    c.l1HitRate = 0.55;
    return c;
}

void
RShadeStage::execute(ExecContext&, RasterItem& item)
{
    int stride = app_.tilesX() * app_.tilesY();
    int tri = item.id / stride;
    int tile = item.id % stride;
    app_.shadeTriTile(tri, tile % app_.tilesX(), tile / app_.tilesX(),
                      app_.fb_);
}

// ------------------------------ driver -------------------------- //

RasterApp::RasterApp(RasterParams params)
    : params_(params)
{
    VP_CHECK(params_.cubes > 0 && params_.width > 0
                 && params_.height > 0 && params_.tile > 0,
             ErrorCode::Config,
             "raster: cubes, width, height and tile must be positive");
    pipe_.addStage<ClipStage>(*this);
    pipe_.addStage<InterpolateStage>(*this);
    pipe_.addStage<RShadeStage>(*this);
    pipe_.link<ClipStage, InterpolateStage>();
    pipe_.link<InterpolateStage, RShadeStage>();
    pipe_.setStructure(PipelineStructure::Linear);

    // Place cubes with varying position, scale and rotation.
    Rng rng(params_.seed);
    for (int c = 0; c < params_.cubes; ++c) {
        double cx = rng.nextRange(-5.0, 5.0);
        double cy = rng.nextRange(-3.0, 3.0);
        double cz = rng.nextRange(5.0, 25.0);
        double s = rng.nextRange(0.4, 1.6);
        double ang = rng.nextRange(0.0, 6.28);
        double ca = std::cos(ang), sa = std::sin(ang);
        for (int f = 0; f < 12; ++f) {
            SourceTri tri;
            for (int v = 0; v < 3; ++v) {
                const float* p = kCorners[kFaces[f][v]];
                // Rotate around Y, scale, translate.
                double x = (p[0] * ca + p[2] * sa) * s + cx;
                double y = p[1] * s + cy;
                double z = (-p[0] * sa + p[2] * ca) * s + cz;
                tri.v[v][0] = float(x);
                tri.v[v][1] = float(y);
                tri.v[v][2] = float(z);
            }
            source_.push_back(tri);
        }
    }
    reset();
}

int
RasterApp::tilesX() const
{
    return (params_.width + params_.tile - 1) / params_.tile;
}

int
RasterApp::tilesY() const
{
    return (params_.height + params_.tile - 1) / params_.tile;
}

void
RasterApp::clipTri(int id)
{
    const SourceTri& src = source_[id];
    Tri out;
    double f = params_.height * 0.9;
    bool behind = false;
    for (int v = 0; v < 3; ++v) {
        double z = src.v[v][2];
        if (z < 0.5)
            behind = true;
        z = std::max(0.5, z);
        out.x[v] = float(src.v[v][0] / z * f + params_.width * 0.5);
        out.y[v] = float(src.v[v][1] / z * f + params_.height * 0.5);
        out.z[v] = float(z);
    }
    // Cull: behind camera, fully off screen, or backfacing.
    double area = (out.x[1] - out.x[0]) * (out.y[2] - out.y[0])
        - (out.x[2] - out.x[0]) * (out.y[1] - out.y[0]);
    bool off = true;
    for (int v = 0; v < 3; ++v) {
        if (out.x[v] >= 0 && out.x[v] < params_.width && out.y[v] >= 0
            && out.y[v] < params_.height)
            off = false;
    }
    out.culled = behind || off || area <= 0.0;
    screen_[id] = out;
}

int
RasterApp::tilesTouched(int tri, std::vector<int>* out) const
{
    const Tri& t = screen_[tri];
    int min_x = std::clamp(
        int(std::floor(std::min({t.x[0], t.x[1], t.x[2]})))
            / params_.tile, 0, tilesX() - 1);
    int max_x = std::clamp(
        int(std::ceil(std::max({t.x[0], t.x[1], t.x[2]})))
            / params_.tile, 0, tilesX() - 1);
    int min_y = std::clamp(
        int(std::floor(std::min({t.y[0], t.y[1], t.y[2]})))
            / params_.tile, 0, tilesY() - 1);
    int max_y = std::clamp(
        int(std::ceil(std::max({t.y[0], t.y[1], t.y[2]})))
            / params_.tile, 0, tilesY() - 1);
    int count = 0;
    for (int ty = min_y; ty <= max_y; ++ty) {
        for (int tx = min_x; tx <= max_x; ++tx) {
            ++count;
            if (out)
                out->push_back(ty * tilesX() + tx);
        }
    }
    return count;
}

void
RasterApp::shadeTriTile(int tri, int tx, int ty,
                        std::vector<std::uint64_t>& fb) const
{
    const Tri& t = screen_[tri];
    double x0 = t.x[0], y0 = t.y[0];
    double x1 = t.x[1], y1 = t.y[1];
    double x2 = t.x[2], y2 = t.y[2];
    double area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0);
    if (area <= 0.0)
        return;

    int px0 = tx * params_.tile;
    int py0 = ty * params_.tile;
    int px1 = std::min(params_.width, px0 + params_.tile);
    int py1 = std::min(params_.height, py0 + params_.tile);
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
            // Depth-major packing with the triangle id as a unique,
            // deterministic tiebreaker: min() = nearest wins.
            std::uint64_t zq = static_cast<std::uint64_t>(
                std::min(1e9, z * 1e4));
            std::uint64_t packed = (zq << 24)
                | static_cast<std::uint64_t>(tri);
            std::uint64_t& cell =
                fb[static_cast<std::size_t>(y) * params_.width + x];
            cell = std::min(cell, packed);
        }
    }
}

void
RasterApp::reset()
{
    screen_.assign(triangles(), Tri{});
    fb_.assign(static_cast<std::size_t>(params_.width)
               * params_.height, ~std::uint64_t(0));
    drawn_ = 0;
}

void
RasterApp::seedFlow(Seeder& seeder, int)
{
    std::vector<RasterItem> tris;
    for (int t = 0; t < triangles(); ++t)
        tris.push_back(RasterItem{t});
    seeder.insert<ClipStage>(std::move(tris));
}

bool
RasterApp::verify()
{
    if (!refBuilt_) {
        // Sequential reference with the same stage math.
        std::vector<std::uint64_t> fb(
            static_cast<std::size_t>(params_.width) * params_.height,
            ~std::uint64_t(0));
        std::vector<Tri> saved_screen = screen_;
        int saved_drawn = drawn_;
        for (int id = 0; id < triangles(); ++id) {
            clipTri(id);
            if (screen_[id].culled)
                continue;
            std::vector<int> tiles;
            tilesTouched(id, &tiles);
            for (int t : tiles)
                shadeTriTile(id, t % tilesX(), t / tilesX(), fb);
        }
        screen_ = std::move(saved_screen);
        drawn_ = saved_drawn;
        std::uint64_t h = 1469598103934665603ULL;
        for (std::uint64_t v : fb) {
            h ^= v;
            h *= 1099511628211ULL;
        }
        refChecksum_ = h;
        refBuilt_ = true;
    }
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint64_t v : fb_) {
        h ^= v;
        h *= 1099511628211ULL;
    }
    return h == refChecksum_;
}

} // namespace vp::raster
