/**
 * @file
 * Reyes rendering application (paper Fig. 1, sec 8.3): the recursive
 * Split (bound+split) stage, Dice, and Shade, over bicubic Bezier
 * patches rendered into a framebuffer.
 *
 * Patches are the Split/Dice data item: 272 bytes, the largest item
 * of any evaluated pipeline (Table 2), which makes Reyes the
 * queue-overhead-heaviest workload.
 */

#ifndef VP_APPS_REYES_REYES_APP_HH
#define VP_APPS_REYES_REYES_APP_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "core/versapipe.hh"

namespace vp::reyes {

/** Workload parameters. */
struct ReyesParams
{
    int patches = 32;       //!< initial teapot-like patch count
    int width = 1280;
    int height = 720;
    double diceBound = 24.0; //!< screen-space bound to stop splitting
    int maxDepth = 9;
    int grid = 16;           //!< micropolygon grid side
    std::uint64_t seed = 20170303;

    static ReyesParams small();
};

/** A bicubic Bezier patch in flight (Table 2: 272 B). */
struct PatchItem
{
    float cp[16][4];        //!< control points (x, y, z, w)
    std::int32_t depth;
    std::int32_t id;
    std::int32_t axis;      //!< next split axis (0 = u, 1 = v)
    std::int32_t pad;
};
static_assert(sizeof(PatchItem) == 272,
              "paper reports 272-byte Reyes items");

/** Split kernel: the two halves of @p patch at t = 0.5 along its
 *  axis, one level deeper, to be split along the other axis next. */
std::pair<PatchItem, PatchItem> splitPatch(const PatchItem& patch);

/**
 * Dice kernel: the (grid + 1)^2 surface points of @p patch at
 * u = i / grid and v = j / grid, point (i, j) as the xyz triplet at
 * (j * (grid + 1) + i) * 3. A point is the cubic in v through the
 * four control rows' cubics at u. Those depend on u alone, so they
 * are evaluated once per grid column, not once per point.
 */
std::vector<float> dicePatch(const PatchItem& patch, int grid);

/** A diced grid handed to Shade (references app-held grid data). */
struct GridItem
{
    std::int32_t gridId;
    std::int32_t patchId;
};

class ReyesApp;

/** Bound + split: recursive subdivision until diceable. */
class SplitStage : public Stage<PatchItem>
{
  public:
    explicit SplitStage(ReyesApp& app);
    TaskCost cost(const PatchItem& item) const override;
    void execute(ExecContext& ctx, PatchItem& item) override;

  private:
    ReyesApp& app_;
};

/** Dice: evaluate the micropolygon grid of a diceable patch. */
class DiceStage : public Stage<PatchItem>
{
  public:
    explicit DiceStage(ReyesApp& app);
    TaskCost cost(const PatchItem& item) const override;
    void execute(ExecContext& ctx, PatchItem& item) override;

  private:
    ReyesApp& app_;
};

/** Shade: light micropolygons and splat them to the framebuffer. */
class ShadeStage : public Stage<GridItem>
{
  public:
    explicit ShadeStage(ReyesApp& app);
    TaskCost cost(const GridItem& item) const override;
    void execute(ExecContext& ctx, GridItem& item) override;

  private:
    ReyesApp& app_;
};

/** The Reyes application driver. */
class ReyesApp : public AppDriver
{
  public:
    explicit ReyesApp(ReyesParams params = {});

    std::string name() const override { return "reyes"; }
    Pipeline& pipeline() override { return pipe_; }
    void reset() override;
    void seedFlow(Seeder& seeder, int flow) override;
    bool verify() override;

    /** Every stage's cost is a constant, and split's children read
     *  only its patch, which its lineage fixes; dice's grid id
     *  depends on the schedule but reaches only shade's payload. */
    bool replayable() const override { return true; }

    const ReyesParams& params() const { return params_; }

    /** Rendered framebuffer (intensity-packed, max-combined). */
    const std::vector<std::uint32_t>& framebuffer() const
    {
        return fb_;
    }

    /** Patches diced during the last run. */
    int dicedPatches() const { return static_cast<int>(grids_.size()); }

    /** The patches every run starts from. */
    const std::vector<PatchItem>& initialPatches() const
    {
        return initial_;
    }

  private:
    friend class SplitStage;
    friend class DiceStage;
    friend class ShadeStage;

    /** One evaluated micropolygon grid: (grid+1)^2 positions. */
    struct Grid
    {
        std::vector<float> pts; //!< xyz triplets
    };

    /** Screen-space bounding box size of a patch. */
    double boundSize(const PatchItem& p) const;

    /** Whether Split hands @p p to Dice instead of splitting it. */
    bool diceable(const PatchItem& p) const;

    /** Project a camera-space point to pixels. */
    void project(const float* xyz, double& sx, double& sy) const;

    /** Render one diced grid into a framebuffer. */
    void shadeGrid(const Grid& g, std::vector<std::uint32_t>& fb)
        const;

    /** Full sequential pipeline for verification. */
    std::vector<std::uint32_t> renderReference() const;

    ReyesParams params_;
    Pipeline pipe_;
    std::vector<PatchItem> initial_;
    std::vector<Grid> grids_;
    std::vector<std::uint32_t> fb_;
    std::uint64_t refChecksum_ = 0;
    bool refBuilt_ = false;
};

} // namespace vp::reyes

#endif // VP_APPS_REYES_REYES_APP_HH
