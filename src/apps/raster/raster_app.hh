/**
 * @file
 * Rasterization application (paper Fig. 16): a linear 3-stage
 * pipeline — Clip -> Interpolate -> Shade — rendering 100 cubes into
 * a 1024x768 framebuffer. Items are 4-byte ids (Table 2), the
 * smallest of any evaluated pipeline.
 */

#ifndef VP_APPS_RASTER_RASTER_APP_HH
#define VP_APPS_RASTER_RASTER_APP_HH

#include <cstdint>
#include <vector>

#include "core/versapipe.hh"

namespace vp::raster {

/** Workload parameters. */
struct RasterParams
{
    int cubes = 100;
    int width = 1024;
    int height = 768;
    int tile = 32; //!< shading tile side in pixels
    std::uint64_t seed = 20170606;

    static RasterParams small();
};

/** Data item (Table 2: 4 B): a triangle id, or a packed
 * (triangle, tile) pair for the Shade stage. */
struct RasterItem
{
    std::int32_t id;
};
static_assert(sizeof(RasterItem) == 4, "paper reports 4-byte items");

/** A screen-space triangle, as the Clip stage leaves it. */
struct ScreenTri
{
    float x[3], y[3], z[3];
    bool culled = false;
};

/**
 * Shade kernel: min-combines the depth-packed pixels of triangle
 * @p tri (screen-space @p t) that cover tile (tx, ty) into @p fb, the
 * p.width x p.height framebuffer. A pixel is covered when the three
 * double edge functions at its centre are all >= 0. Each row
 * evaluates them only inside a span, bounded by where each edge
 * crosses the row, widened by a rounding margin and a pixel each
 * side. Every pixel outside the span has an edge function that
 * rounds below zero, so the result is the whole tile's.
 */
void shadeTriTile(const ScreenTri& t, std::int32_t tri, int tx, int ty,
                  const RasterParams& p, std::vector<std::uint64_t>& fb);

class RasterApp;

/** Transform + frustum cull one triangle. */
class ClipStage : public Stage<RasterItem>
{
  public:
    explicit ClipStage(RasterApp& app);
    TaskCost cost(const RasterItem& item) const override;
    void execute(ExecContext& ctx, RasterItem& item) override;

  private:
    RasterApp& app_;
};

/** Coverage setup: emit (triangle, tile) work for touched tiles. */
class InterpolateStage : public Stage<RasterItem>
{
  public:
    explicit InterpolateStage(RasterApp& app);
    TaskCost cost(const RasterItem& item) const override;
    void execute(ExecContext& ctx, RasterItem& item) override;

  private:
    RasterApp& app_;
};

/** Shade covered pixels of one (triangle, tile) pair. */
class RShadeStage : public Stage<RasterItem>
{
  public:
    explicit RShadeStage(RasterApp& app);
    TaskCost cost(const RasterItem& item) const override;
    void execute(ExecContext& ctx, RasterItem& item) override;

  private:
    RasterApp& app_;
};

/** The Rasterization application driver. */
class RasterApp : public AppDriver
{
  public:
    explicit RasterApp(RasterParams params = {});

    std::string name() const override { return "raster"; }
    Pipeline& pipeline() override { return pipe_; }
    void reset() override;
    void seedFlow(Seeder& seeder, int flow) override;
    bool verify() override;

    /** Lineage fixes a triangle id (or triangle-tile pair), so the
     *  cull result, the touched tiles and every cost and child. */
    bool replayable() const override { return true; }

    const RasterParams& params() const { return params_; }

    /** Depth/triangle packed framebuffer (min-combined). */
    const std::vector<std::uint64_t>& framebuffer() const
    {
        return fb_;
    }

    /** Triangles surviving the clip stage in the last run. */
    int trianglesDrawn() const { return drawn_; }

    /** Total input triangles (12 per cube). */
    int triangles() const { return params_.cubes * 12; }

    /** Tiles across / down. */
    int tilesX() const;
    int tilesY() const;

    /** Triangle @p id projected and culled, as the Clip stage
     *  computes it. */
    ScreenTri screenTri(int id) const;

  private:
    friend class ClipStage;
    friend class InterpolateStage;
    friend class RShadeStage;

    /** Object-space triangle corners (set up in the constructor). */
    struct SourceTri
    {
        float v[3][3];
    };

    int tilesTouched(const ScreenTri& t, std::vector<int>* out) const;

    RasterParams params_;
    Pipeline pipe_;

    std::vector<SourceTri> source_;
    std::vector<ScreenTri> screen_;
    std::vector<std::uint64_t> fb_;
    int drawn_ = 0;

    std::uint64_t refChecksum_ = 0;
    bool refBuilt_ = false;
};

} // namespace vp::raster

#endif // VP_APPS_RASTER_RASTER_APP_HH
