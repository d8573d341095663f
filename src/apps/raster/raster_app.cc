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

void
shadeTriTile(const ScreenTri& t, std::int32_t tri, int tx, int ty,
             const RasterParams& p, std::vector<std::uint64_t>& fb)
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

    // Row spans. Along a row, the exact function of edge (a, b) is
    // linear in cx with slope ya - yb. Rounded to doubles, its value
    // at any centre of this tile is off by at most about 8u * reach_x
    // * reach_y (u = 2^-53). margin is twice the error of two such
    // values, so wherever the line through the value at the row's
    // first centre lies below -margin, the pixel test rounds below
    // zero: `cross` columns on. Where it matters `cross` is off by
    // less than half a pixel, and the span keeps one more pixel on
    // each side. A crossing that is not finite (a horizontal edge, a
    // non-finite vertex) bounds nothing.
    const double cx_first = px0 + 0.5, cx_last = px1 - 0.5;
    const double cy_first = py0 + 0.5, cy_last = py1 - 0.5;
    double reach_x = 0.0, reach_y = 0.0;
    for (int v = 0; v < 3; ++v) {
        reach_x = std::max({reach_x, std::fabs(t.x[v] - cx_first),
                            std::fabs(t.x[v] - cx_last)});
        reach_y = std::max({reach_y, std::fabs(t.y[v] - cy_first),
                            std::fabs(t.y[v] - cy_last)});
    }
    const double margin = 0x1p-48 * reach_x * reach_y;
    const double cols = px1 - px0;
    // Edge (a, b) with xa and xb relative to the first centre, and
    // the reciprocal of its slope.
    struct RowEdge
    {
        double ax, ay, bx, by, invSlope;
    };
    const RowEdge edges[3] = {
        {x1 - cx_first, y1, x2 - cx_first, y2, 1.0 / (y1 - y2)},
        {x2 - cx_first, y2, x0 - cx_first, y0, 1.0 / (y2 - y0)},
        {x0 - cx_first, y0, x1 - cx_first, y1, 1.0 / (y0 - y1)},
    };

    for (int y = py0; y < py1; ++y) {
        double cy = y + 0.5;
        int lo = px0, hi = px1;
        for (const RowEdge& e : edges) {
            double w = e.ax * (e.by - cy) - e.bx * (e.ay - cy);
            double cross = (-margin - w) * e.invSlope;
            if (!std::isfinite(cross))
                continue;
            // Clamped before the conversion, which truncates.
            if (e.invSlope > 0) {
                lo = std::max(lo, px0 + static_cast<int>(std::clamp(
                                      cross - 1, 0.0, cols)));
            } else {
                hi = std::min(hi, px0 + static_cast<int>(std::clamp(
                                      cross + 2, 0.0, cols)));
            }
        }
        for (int x = lo; x < hi; ++x) {
            double cx = x + 0.5;
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
                fb[static_cast<std::size_t>(y) * p.width + x];
            cell = std::min(cell, packed);
        }
    }
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
    ScreenTri& t = app_.screen_[item.id];
    t = app_.screenTri(item.id);
    if (!t.culled) {
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
    int tiles = app_.tilesTouched(app_.screen_[item.id], nullptr);
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
    app_.tilesTouched(app_.screen_[item.id], &tiles);
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
    shadeTriTile(app_.screen_[tri], tri, tile % app_.tilesX(),
                 tile / app_.tilesX(), app_.params_, app_.fb_);
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

ScreenTri
RasterApp::screenTri(int id) const
{
    const SourceTri& src = source_[id];
    ScreenTri out;
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
    return out;
}

int
RasterApp::tilesTouched(const ScreenTri& t, std::vector<int>* out) const
{
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
RasterApp::reset()
{
    screen_.assign(triangles(), ScreenTri{});
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
        std::vector<int> tiles;
        for (int id = 0; id < triangles(); ++id) {
            ScreenTri t = screenTri(id);
            if (t.culled)
                continue;
            tiles.clear();
            tilesTouched(t, &tiles);
            for (int tile : tiles) {
                shadeTriTile(t, id, tile % tilesX(), tile / tilesX(),
                             params_, fb);
            }
        }
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
