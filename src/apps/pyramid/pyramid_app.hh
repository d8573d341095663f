/**
 * @file
 * Image Pyramid application (paper sec 8.3, Fig. 12): a 3-stage
 * recursive pipeline — Grayscale -> Histogram equalization ->
 * Resize (recursive down-sampling until the image is small).
 *
 * Histogram equalization runs one 256-thread block per image with an
 * inherently serial portion, the bottleneck that makes the KBK
 * baseline under-utilize the GPU (96% of its runtime in the paper).
 */

#ifndef VP_APPS_PYRAMID_PYRAMID_APP_HH
#define VP_APPS_PYRAMID_PYRAMID_APP_HH

#include <cstdint>
#include <vector>

#include "apps/common/image.hh"
#include "core/versapipe.hh"

namespace vp::pyramid {

/** Workload parameters. */
struct PyrParams
{
    int images = 8;
    int width = 1280;
    int height = 720;
    /** Stop resizing when the next level's min dimension drops
     * below this. */
    int minDim = 24;
    /** Rows per grayscale/resize band item. */
    int bandRows = 32;
    std::uint64_t seed = 20170101;

    /** Small configuration for tuner searches and quick tests. */
    static PyrParams small();
};

/** Data item (Table 2: 12 B). */
struct PyrItem
{
    std::int32_t image;
    std::int32_t level;
    std::int32_t band;
};
static_assert(sizeof(PyrItem) == 12, "paper reports 12-byte items");

class PyramidApp;

/** RGB -> luma over one band of rows. */
class GrayscaleStage : public Stage<PyrItem>
{
  public:
    explicit GrayscaleStage(PyramidApp& app);
    TaskCost cost(const PyrItem& item) const override;
    void execute(ExecContext& ctx, PyrItem& item) override;

  private:
    PyramidApp& app_;
};

/** Whole-image histogram equalization (serial portion). */
class HistEqStage : public Stage<PyrItem>
{
  public:
    explicit HistEqStage(PyramidApp& app);
    TaskCost cost(const PyrItem& item) const override;
    void execute(ExecContext& ctx, PyrItem& item) override;

  private:
    PyramidApp& app_;
};

/** One band of one pyramid level; recursively spawns the next. */
class ResizeStage : public Stage<PyrItem>
{
  public:
    explicit ResizeStage(PyramidApp& app);
    TaskCost cost(const PyrItem& item) const override;
    void execute(ExecContext& ctx, PyrItem& item) override;

  private:
    PyramidApp& app_;
};

/** The Image Pyramid application driver. */
class PyramidApp : public AppDriver
{
  public:
    explicit PyramidApp(PyrParams params = {});

    std::string name() const override { return "pyramid"; }
    Pipeline& pipeline() override { return pipe_; }
    void reset() override;
    int flowCount() const override { return params_.images; }
    void seedFlow(Seeder& seeder, int flow) override;
    double inputBytes() const override { return 0.0; }
    bool verify() override;

    /** Lineage fixes (image, level, band) and so a band's cost; the
     *  next level is a join's continuation, keyed by (image, level). */
    bool replayable() const override { return true; }

    const PyrParams& params() const { return params_; }

    /** Pyramid levels per image (level 0 = equalized full size). */
    const std::vector<std::vector<GrayImage>>&
    result() const
    {
        return levels_;
    }

    /** Number of levels each image produces (full size included). */
    int levelCount() const;

    /** Dimensions of pyramid level @p level. */
    std::pair<int, int> levelDims(int level) const;

    /** Bands of rows in level @p level. */
    int bandsInLevel(int level) const;

  private:
    friend class GrayscaleStage;
    friend class HistEqStage;
    friend class ResizeStage;

    PyrParams params_;
    Pipeline pipe_;

    std::vector<RgbImage> inputs_;
    std::vector<GrayImage> gray_;
    /** levels_[image][level]; level 0 is the equalized image. */
    std::vector<std::vector<GrayImage>> levels_;
    /** An image's gray bands join before HistEq; a level's
     *  producers join before the next level. */
    Join<ImageLevel> grayJoin_, levelJoin_;

    /** Reference results computed once for verification. */
    std::vector<std::vector<std::uint64_t>> refChecksums_;
};

} // namespace vp::pyramid

#endif // VP_APPS_PYRAMID_PYRAMID_APP_HH
