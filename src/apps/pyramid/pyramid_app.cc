#include "apps/pyramid/pyramid_app.hh"

#include <algorithm>

namespace vp::pyramid {

namespace {
/** Threads per data item: one block cooperates on each task. */
constexpr int kThreads = 256;
} // namespace

PyrParams
PyrParams::small()
{
    PyrParams p;
    p.images = 2;
    p.width = 640;
    p.height = 360;
    return p;
}

// ------------------------------ stages -------------------------- //

GrayscaleStage::GrayscaleStage(PyramidApp& app)
    : app_(app)
{
    name = "grayscale";
    threadNum = kThreads;
    resources.regsPerThread = 40;  // 6 blocks/SM on K20c
    resources.codeBytes = 8192;
}

TaskCost
GrayscaleStage::cost(const PyrItem& item) const
{
    int w = app_.params_.width;
    int rows = std::min(app_.params_.bandRows,
                        app_.params_.height
                        - item.band * app_.params_.bandRows);
    double px_per_thread = double(w) * rows / kThreads;
    TaskCost c;
    c.computeInsts = px_per_thread * 3.0;
    c.memInsts = px_per_thread * 2.0;
    c.l1HitRate = 0.55;
    return c;
}

void
GrayscaleStage::execute(ExecContext& ctx, PyrItem& item)
{
    const RgbImage& src = app_.inputs_[item.image];
    int y0 = item.band * app_.params_.bandRows;
    int y1 = std::min(src.height(), y0 + app_.params_.bandRows);
    grayscaleRows(src, app_.gray_[item.image], y0, y1);
    ctx.arrive(app_.grayJoin_, {item.image, 0});
}

HistEqStage::HistEqStage(PyramidApp& app)
    : app_(app)
{
    name = "histeq";
    threadNum = kThreads;
    resources.regsPerThread = 80;  // 3 blocks/SM on K20c
    resources.codeBytes = 14336;
}

TaskCost
HistEqStage::cost(const PyrItem&) const
{
    double px_per_thread = double(app_.params_.width)
        * app_.params_.height / kThreads;
    TaskCost c;
    c.computeInsts = px_per_thread * 4.0;
    c.memInsts = px_per_thread * 2.2;
    // The CDF prefix scan and remap-table build run on one lane.
    c.serialInsts = 4000.0;
    c.l1HitRate = 0.60;
    return c;
}

void
HistEqStage::execute(ExecContext& ctx, PyrItem& item)
{
    GrayImage eq = referenceHistEq(app_.gray_[item.image]);
    app_.levels_[item.image][0] = std::move(eq);
    ctx.arrive(app_.levelJoin_, {item.image, 0});
}

ResizeStage::ResizeStage(PyramidApp& app)
    : app_(app)
{
    name = "resize";
    threadNum = kThreads;
    resources.regsPerThread = 64;  // 4 blocks/SM on K20c
    resources.codeBytes = 12288;
}

TaskCost
ResizeStage::cost(const PyrItem& item) const
{
    auto [w, h] = app_.levelDims(item.level);
    int rows = std::min(app_.params_.bandRows,
                        h - item.band * app_.params_.bandRows);
    double px_per_thread = double(w) * rows / kThreads;
    TaskCost c;
    c.computeInsts = px_per_thread * 3.5;
    c.memInsts = px_per_thread * 2.5;
    c.l1HitRate = 0.50;
    return c;
}

void
ResizeStage::execute(ExecContext& ctx, PyrItem& item)
{
    const GrayImage& src = app_.levels_[item.image][item.level - 1];
    GrayImage& dst = app_.levels_[item.image][item.level];
    auto [w, h] = app_.levelDims(item.level);
    if (dst.width() == 0)
        dst = GrayImage(w, h);
    int y0 = item.band * app_.params_.bandRows;
    int y1 = std::min(h, y0 + app_.params_.bandRows);
    downsampleRows(src, dst, y0, y1);
    ctx.arrive(app_.levelJoin_, {item.image, item.level});
}

// ------------------------------ driver -------------------------- //

PyramidApp::PyramidApp(PyrParams params)
    : params_(params)
{
    VP_CHECK(params_.images > 0 && params_.width > 16
             && params_.height > 16, ErrorCode::Config,
             "pyramid: need images > 0 and a frame over 16x16");
    VP_CHECK(params_.minDim > 0 && params_.bandRows > 0,
             ErrorCode::Config,
             "pyramid: minDim and bandRows must be positive");
    pipe_.addStage<GrayscaleStage>(*this);
    pipe_.addStage<HistEqStage>(*this);
    pipe_.addStage<ResizeStage>(*this);
    pipe_.link<GrayscaleStage, HistEqStage>();
    pipe_.link<HistEqStage, ResizeStage>();
    pipe_.link<ResizeStage, ResizeStage>(); // recursion
    pipe_.setStructure(PipelineStructure::Recursion);
    grayJoin_ = pipe_.addJoin<ImageLevel>(
        "gray", [this](const ImageLevel&) { return bandsInLevel(0); },
        [](ExecContext& ctx, const ImageLevel& k) {
            ctx.enqueue<HistEqStage>(PyrItem{k.image, 0, 0});
        });
    // Level 0 is complete once equalized, a level below it once all
    // its bands are; then the next level starts, band by band.
    levelJoin_ = pipe_.addJoin<ImageLevel>(
        "level",
        [this](const ImageLevel& k) {
            return k.level == 0 ? 1 : bandsInLevel(k.level);
        },
        [this](ExecContext& ctx, const ImageLevel& k) {
            if (k.level + 1 < levelCount())
                for (int b = 0; b < bandsInLevel(k.level + 1); ++b)
                    ctx.enqueue<ResizeStage>(
                        PyrItem{k.image, k.level + 1, b});
        });

    for (int i = 0; i < params_.images; ++i) {
        inputs_.push_back(makeTestImage(params_.width, params_.height,
                                        params_.seed + i));
    }

    // Reference results for verification.
    for (int i = 0; i < params_.images; ++i) {
        std::vector<std::uint64_t> sums;
        GrayImage g = referenceGrayscale(inputs_[i]);
        GrayImage level = referenceHistEq(g);
        sums.push_back(level.checksum());
        for (int l = 1; l < levelCount(); ++l) {
            level = referenceDownsample(level);
            sums.push_back(level.checksum());
        }
        refChecksums_.push_back(std::move(sums));
    }
    reset();
}

int
PyramidApp::levelCount() const
{
    int count = 1;
    int w = params_.width, h = params_.height;
    while (std::min(w / 2, h / 2) >= params_.minDim) {
        w /= 2;
        h /= 2;
        ++count;
    }
    return count;
}

std::pair<int, int>
PyramidApp::levelDims(int level) const
{
    int w = params_.width, h = params_.height;
    for (int l = 0; l < level; ++l) {
        w /= 2;
        h /= 2;
    }
    return {w, h};
}

int
PyramidApp::bandsInLevel(int level) const
{
    auto [w, h] = levelDims(level);
    (void)w;
    return (h + params_.bandRows - 1) / params_.bandRows;
}

void
PyramidApp::reset()
{
    gray_.assign(params_.images,
                 GrayImage(params_.width, params_.height));
    levels_.assign(params_.images,
                   std::vector<GrayImage>(levelCount()));
}

void
PyramidApp::seedFlow(Seeder& seeder, int flow)
{
    std::vector<PyrItem> bands;
    for (int b = 0; b < bandsInLevel(0); ++b)
        bands.push_back(PyrItem{flow, 0, b});
    seeder.insert<GrayscaleStage>(std::move(bands));
}

bool
PyramidApp::verify()
{
    for (int i = 0; i < params_.images; ++i) {
        for (int l = 0; l < levelCount(); ++l) {
            if (levels_[i][l].checksum() != refChecksums_[i][l])
                return false;
        }
    }
    return true;
}

} // namespace vp::pyramid
