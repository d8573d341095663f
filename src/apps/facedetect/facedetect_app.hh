/**
 * @file
 * LBP Face Detection application (paper sec 8.3, Fig. 14): a 5-stage
 * recursive pipeline — Grayscale -> Histogram equalization -> Resize
 * (image pyramid) -> LBP feature extraction -> window Scanning with
 * cascade early termination.
 *
 * A search window is the Scanning data item (paper: chosen for load
 * balance); most windows are rejected after one or two cascade
 * stages while windows over a face evaluate the full cascade.
 */

#ifndef VP_APPS_FACEDETECT_FACEDETECT_APP_HH
#define VP_APPS_FACEDETECT_FACEDETECT_APP_HH

#include <array>
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "apps/common/image.hh"
#include "core/versapipe.hh"

namespace vp::facedetect {

/** Workload parameters. */
struct FdParams
{
    int images = 8;
    int width = 1280;
    int height = 720;
    int minDim = 48;     //!< smallest pyramid level scanned
    int bandRows = 32;   //!< rows per grayscale/resize band
    int window = 24;     //!< square search-window side
    int stride = 6;      //!< window step in both axes
    int facesPerImage = 3;
    std::uint64_t seed = 20170202;

    static FdParams small();
};

/** Data item (Table 2: 16 B). */
struct FdItem
{
    std::int32_t image;
    std::int32_t level;
    std::int32_t a; //!< band (early stages) / window x (scan)
    std::int32_t b; //!< window y (scan)

    bool operator==(const FdItem&) const = default;
};
static_assert(sizeof(FdItem) == 16, "paper reports 16-byte items");

/**
 * LBP codes of rows [y0, y1) of src into the same rows of codes (src's
 * size): per pixel, bit k is set when neighbour k (clockwise from the
 * top-left) is >= the center, with coordinates clamped at the border.
 * Interior pixels read their neighbours straight from the three rows.
 */
void lbpRows(const GrayImage& src, GrayImage& codes, int y0, int y1);

class FaceDetectApp;

/** RGB -> luma over one band. */
class FdGrayscale : public Stage<FdItem>
{
  public:
    explicit FdGrayscale(FaceDetectApp& app);
    TaskCost cost(const FdItem& item) const override;
    void execute(ExecContext& ctx, FdItem& item) override;

  private:
    FaceDetectApp& app_;
};

/** Whole-image histogram equalization (limited parallelism). */
class FdHistEq : public Stage<FdItem>
{
  public:
    explicit FdHistEq(FaceDetectApp& app);
    TaskCost cost(const FdItem& item) const override;
    void execute(ExecContext& ctx, FdItem& item) override;

  private:
    FaceDetectApp& app_;
};

/** Pyramid level band; recursive. */
class FdResize : public Stage<FdItem>
{
  public:
    explicit FdResize(FaceDetectApp& app);
    TaskCost cost(const FdItem& item) const override;
    void execute(ExecContext& ctx, FdItem& item) override;

  private:
    FaceDetectApp& app_;
};

/** LBP code computation for one pyramid level. */
class FdFeature : public Stage<FdItem>
{
  public:
    explicit FdFeature(FaceDetectApp& app);
    TaskCost cost(const FdItem& item) const override;
    void execute(ExecContext& ctx, FdItem& item) override;

  private:
    FaceDetectApp& app_;
};

/** Cascade evaluation of one search window. */
class FdScan : public Stage<FdItem>
{
  public:
    explicit FdScan(FaceDetectApp& app);
    TaskCost cost(const FdItem& item) const override;
    void execute(ExecContext& ctx, FdItem& item) override;

  private:
    /** app_.cascadeDepth(item), remembered for the last item: a
     *  task's cost() and execute() ask for the same window. Not
     *  shared: each driver, with its stages, runs on one thread. */
    int depth(const FdItem& item) const;

    FaceDetectApp& app_;
    mutable FdItem lastItem_{-1, -1, -1, -1};
    mutable int lastDepth_ = 0;
};

/** A detected face: (image, level, x, y). */
using Detection = std::tuple<int, int, int, int>;

/** The Face Detection application driver. */
class FaceDetectApp : public AppDriver
{
  public:
    explicit FaceDetectApp(FdParams params = {});

    std::string name() const override { return "facedetect"; }
    Pipeline& pipeline() override { return pipe_; }
    void reset() override;
    int flowCount() const override { return params_.images; }
    void seedFlow(Seeder& seeder, int flow) override;
    bool verify() override;

    /** Lineage fixes an item and so its cost; each level's next
     *  steps are joins' continuations, keyed by (image, level). */
    bool replayable() const override { return true; }

    const FdParams& params() const { return params_; }

    /** Detections of the last run (unsorted). */
    const std::vector<Detection>& detections() const
    {
        return detections_;
    }

    /** Ground-truth face count planted in the inputs. */
    int plantedFaces() const
    {
        return params_.images * params_.facesPerImage;
    }

    /** Number of pyramid levels scanned. */
    int levelCount() const;

    /** Dimensions of a level. */
    std::pair<int, int> levelDims(int level) const;

    /** Bands of rows in a level. */
    int bandsInLevel(int level) const;

    /**
     * Cascade evaluation on LBP codes: returns the depth reached
     * (kCascadeStages = accepted). Shared by cost() and execute().
     */
    int cascadeDepth(const FdItem& item) const;

    static constexpr int kCascadeStages = 8;
    /** LBP codes each cascade stage samples, on a ring. */
    static constexpr int kRingSamples = 16;

  private:
    friend class FdGrayscale;
    friend class FdHistEq;
    friend class FdResize;
    friend class FdFeature;
    friend class FdScan;

    FdParams params_;
    Pipeline pipe_;

    std::vector<RgbImage> inputs_;
    std::vector<GrayImage> gray_;
    std::vector<std::vector<GrayImage>> levels_;
    /** Joins over a level: gray bands before HistEq, producers before
     *  the level's features and the next level, features before the
     *  level's scan windows. */
    Join<ImageLevel> grayJoin_, levelJoin_, featureJoin_;
    /** LBP code images per (image, level). */
    std::vector<std::vector<GrayImage>> lbp_;

    std::vector<Detection> detections_;
    /** Reference detections from the sequential CPU pipeline. */
    std::set<Detection> refDetections_;
    bool refBuilt_ = false;

    /** Per (stage, sample): the sampled code's offset from a window's
     *  top-left corner, fixed by the window size. */
    struct RingOffset
    {
        int x, y;
    };
    std::array<RingOffset, kCascadeStages * kRingSamples> ring_{};

    void buildReference();
};

} // namespace vp::facedetect

#endif // VP_APPS_FACEDETECT_FACEDETECT_APP_HH
