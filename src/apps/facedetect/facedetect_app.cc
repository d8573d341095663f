#include "apps/facedetect/facedetect_app.hh"

#include <algorithm>

namespace vp::facedetect {

namespace {
constexpr int kThreads = 256;

/** LBP code of a pixel: 8 neighbor comparisons packed into a byte. */
std::uint8_t
lbpCode(const GrayImage& img, int x, int y)
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

/** True when an LBP code is "uniform" (<= 2 bit transitions). */
constexpr bool
uniform(std::uint8_t code)
{
    std::uint8_t rotated = static_cast<std::uint8_t>(
        (code << 1) | (code >> 7));
    int transitions = __builtin_popcount(
        static_cast<unsigned>(code ^ rotated));
    return transitions <= 2;
}

/** uniform() of every code: a cascade sample looks its code up
 *  instead of counting bits (a library call on baseline x86-64). */
constexpr std::array<bool, 256> kUniform = [] {
    std::array<bool, 256> table{};
    for (int code = 0; code < 256; ++code)
        table[code] = uniform(static_cast<std::uint8_t>(code));
    return table;
}();

} // namespace

void
lbpRows(const GrayImage& src, GrayImage& codes, int y0, int y1)
{
    const int w = src.width();
    for (int y = y0; y < y1; ++y) {
        std::uint8_t* out = codes.row(y);
        if (y == 0 || y == src.height() - 1 || w < 3) {
            for (int x = 0; x < w; ++x)
                out[x] = lbpCode(src, x, y);
            continue;
        }
        const std::uint8_t* up = src.row(y - 1);
        const std::uint8_t* mid = src.row(y);
        const std::uint8_t* down = src.row(y + 1);
        out[0] = lbpCode(src, 0, y);
        for (int x = 1; x < w - 1; ++x) {
            const std::uint8_t c = mid[x];
            out[x] = static_cast<std::uint8_t>(
                (up[x - 1] >= c) | (up[x] >= c) << 1
                | (up[x + 1] >= c) << 2 | (mid[x + 1] >= c) << 3
                | (down[x + 1] >= c) << 4 | (down[x] >= c) << 5
                | (down[x - 1] >= c) << 6 | (mid[x - 1] >= c) << 7);
        }
        out[w - 1] = lbpCode(src, w - 1, y);
    }
}

FdParams
FdParams::small()
{
    FdParams p;
    p.images = 2;
    p.width = 640;
    p.height = 360;
    p.minDim = 48;
    p.facesPerImage = 2;
    return p;
}

// ------------------------------ stages -------------------------- //

FdGrayscale::FdGrayscale(FaceDetectApp& app)
    : app_(app)
{
    name = "fd_gray";
    threadNum = kThreads;
    resources.regsPerThread = 56;  // 4 blocks/SM (paper sec 8.3)
    resources.codeBytes = 7168;
}

TaskCost
FdGrayscale::cost(const FdItem& item) const
{
    int rows = std::min(app_.params_.bandRows,
                        app_.params_.height
                        - item.a * app_.params_.bandRows);
    double px = double(app_.params_.width) * rows / kThreads;
    TaskCost c;
    c.computeInsts = px * 3.0;
    c.memInsts = px * 2.0;
    c.l1HitRate = 0.55;
    return c;
}

void
FdGrayscale::execute(ExecContext& ctx, FdItem& item)
{
    const RgbImage& src = app_.inputs_[item.image];
    int y0 = item.a * app_.params_.bandRows;
    int y1 = std::min(src.height(), y0 + app_.params_.bandRows);
    grayscaleRows(src, app_.gray_[item.image], y0, y1);
    ctx.arrive(app_.grayJoin_, {item.image, 0});
}

FdHistEq::FdHistEq(FaceDetectApp& app)
    : app_(app)
{
    name = "fd_histeq";
    threadNum = kThreads;
    resources.regsPerThread = 69;  // 3 blocks/SM (paper sec 8.3)
    resources.codeBytes = 13312;
}

TaskCost
FdHistEq::cost(const FdItem&) const
{
    double px = double(app_.params_.width) * app_.params_.height
        / kThreads;
    TaskCost c;
    c.computeInsts = px * 1.5;
    c.memInsts = px * 0.8;
    c.serialInsts = 2500.0;
    c.l1HitRate = 0.60;
    return c;
}

void
FdHistEq::execute(ExecContext& ctx, FdItem& item)
{
    app_.levels_[item.image][0] =
        referenceHistEq(app_.gray_[item.image]);
    ctx.arrive(app_.levelJoin_, {item.image, 0});
}

FdResize::FdResize(FaceDetectApp& app)
    : app_(app)
{
    name = "fd_resize";
    threadNum = kThreads;
    resources.regsPerThread = 56;  // 4 blocks/SM
    resources.codeBytes = 11264;
}

TaskCost
FdResize::cost(const FdItem& item) const
{
    auto [w, h] = app_.levelDims(item.level);
    int rows = std::min(app_.params_.bandRows,
                        h - item.a * app_.params_.bandRows);
    double px = double(w) * rows / kThreads;
    TaskCost c;
    c.computeInsts = px * 3.5;
    c.memInsts = px * 2.5;
    c.l1HitRate = 0.50;
    return c;
}

void
FdResize::execute(ExecContext& ctx, FdItem& item)
{
    const GrayImage& src = app_.levels_[item.image][item.level - 1];
    GrayImage& dst = app_.levels_[item.image][item.level];
    auto [w, h] = app_.levelDims(item.level);
    if (dst.width() == 0)
        dst = GrayImage(w, h);
    int y0 = item.a * app_.params_.bandRows;
    int y1 = std::min(h, y0 + app_.params_.bandRows);
    downsampleRows(src, dst, y0, y1);
    ctx.arrive(app_.levelJoin_, {item.image, item.level});
}

FdFeature::FdFeature(FaceDetectApp& app)
    : app_(app)
{
    name = "fd_feature";
    threadNum = kThreads;
    resources.regsPerThread = 61;  // 4 blocks/SM
    resources.codeBytes = 10240;
}

TaskCost
FdFeature::cost(const FdItem& item) const
{
    auto [w, h] = app_.levelDims(item.level);
    int rows = std::min(app_.params_.bandRows,
                        h - item.a * app_.params_.bandRows);
    double px = double(w) * rows / kThreads;
    TaskCost c;
    c.computeInsts = px * 11.0; // 8 neighbor compares + pack
    c.memInsts = px * 9.0;
    c.l1HitRate = 0.70;
    return c;
}

void
FdFeature::execute(ExecContext& ctx, FdItem& item)
{
    const GrayImage& src = app_.levels_[item.image][item.level];
    GrayImage& dst = app_.lbp_[item.image][item.level];
    if (dst.width() == 0)
        dst = GrayImage(src.width(), src.height());
    int y0 = item.a * app_.params_.bandRows;
    int y1 = std::min(src.height(), y0 + app_.params_.bandRows);
    lbpRows(src, dst, y0, y1);
    ctx.arrive(app_.featureJoin_, {item.image, item.level});
}

FdScan::FdScan(FaceDetectApp& app)
    : app_(app)
{
    name = "fd_scan";
    threadNum = 1; // one thread per window
    resources.regsPerThread = 37;  // 6 blocks/SM
    resources.codeBytes = 9216;
}

int
FdScan::depth(const FdItem& item) const
{
    if (item != lastItem_) {
        lastDepth_ = app_.cascadeDepth(item);
        lastItem_ = item;
    }
    return lastDepth_;
}

TaskCost
FdScan::cost(const FdItem& item) const
{
    int d = depth(item);
    TaskCost c;
    c.computeInsts = 150.0 + 420.0 * d;
    c.memInsts = 30.0 + 70.0 * d;
    c.l1HitRate = 0.75;
    return c;
}

void
FdScan::execute(ExecContext&, FdItem& item)
{
    if (depth(item) == FaceDetectApp::kCascadeStages) {
        app_.detections_.emplace_back(item.image, item.level, item.a,
                                      item.b);
    }
}

// ------------------------------ driver -------------------------- //

FaceDetectApp::FaceDetectApp(FdParams params)
    : params_(params)
{
    const FdParams& p = params_;
    VP_CHECK(p.images > 0 && p.height > 0, ErrorCode::Config,
             "facedetect: images and height must be positive");
    VP_CHECK(p.window >= 2 && p.width >= 2 * p.window,
             ErrorCode::Config,
             "facedetect: window " << p.window << " must be >= 2 and "
             "at most half the width " << p.width);
    VP_CHECK(p.minDim > 0 && p.bandRows > 0 && p.stride > 0,
             ErrorCode::Config,
             "facedetect: minDim, bandRows and stride must be "
             "positive");
    pipe_.addStage<FdGrayscale>(*this);
    pipe_.addStage<FdHistEq>(*this);
    pipe_.addStage<FdResize>(*this);
    pipe_.addStage<FdFeature>(*this);
    pipe_.addStage<FdScan>(*this);
    pipe_.link<FdGrayscale, FdHistEq>();
    pipe_.link<FdHistEq, FdResize>();
    pipe_.link<FdHistEq, FdFeature>();
    pipe_.link<FdResize, FdResize>();
    pipe_.link<FdResize, FdFeature>();
    pipe_.link<FdFeature, FdScan>();
    pipe_.setStructure(PipelineStructure::Recursion);
    pipe_.megakernelExtraRegs = 18; // 69 + 18 = 87 (paper sec 8.3)
    auto bands = [this](const ImageLevel& k) { return bandsInLevel(k.level); };
    grayJoin_ = pipe_.addJoin<ImageLevel>(
        "fd_gray", bands, [](ExecContext& ctx, const ImageLevel& k) {
            ctx.enqueue<FdHistEq>(FdItem{k.image, 0, 0, 0});
        });
    // Level 0 is complete once equalized, a level below it once all
    // its bands are: then its features and the next level start.
    levelJoin_ = pipe_.addJoin<ImageLevel>(
        "fd_level",
        [this](const ImageLevel& k) {
            return k.level == 0 ? 1 : bandsInLevel(k.level);
        },
        [this](ExecContext& ctx, const ImageLevel& k) {
            for (int b = 0; b < bandsInLevel(k.level); ++b)
                ctx.enqueue<FdFeature>(FdItem{k.image, k.level, b, 0});
            if (k.level + 1 < levelCount())
                for (int b = 0; b < bandsInLevel(k.level + 1); ++b)
                    ctx.enqueue<FdResize>(
                        FdItem{k.image, k.level + 1, b, 0});
        });
    // Once a level's codes are complete, one scan item per search
    // window (paper: the load-balance choice).
    featureJoin_ = pipe_.addJoin<ImageLevel>(
        "fd_feature", bands,
        [this, p](ExecContext& ctx, const ImageLevel& k) {
            auto [w, h] = levelDims(k.level);
            for (int wy = 0; wy + p.window <= h; wy += p.stride)
                for (int wx = 0; wx + p.window <= w; wx += p.stride)
                    ctx.enqueue<FdScan>(FdItem{k.image, k.level, wx, wy});
        });

    // Fixed integer ring offsets (no trig for determinism) around the
    // window's center, stored relative to its top-left corner.
    const int half = p.window / 2;
    for (int stage = 0; stage < kCascadeStages; ++stage) {
        int radius = 2 + stage;
        for (int k = 0; k < kRingSamples; ++k) {
            int ox = ((k * 2 + stage) % p.window - half) * radius / half;
            int oy = ((k * 5 + 3) % p.window - half) * radius / half;
            ring_[stage * kRingSamples + k] = {half + ox, half + oy};
        }
    }

    Rng face_rng(params_.seed * 7919);
    for (int i = 0; i < params_.images; ++i) {
        std::vector<std::pair<int, int>> faces;
        for (int f = 0; f < params_.facesPerImage; ++f) {
            int margin = params_.window;
            int cx = margin + static_cast<int>(face_rng.nextBelow(
                std::max(1, params_.width - 2 * margin)));
            int cy = margin + static_cast<int>(face_rng.nextBelow(
                std::max(1, params_.height - 2 * margin)));
            faces.emplace_back(cx, cy);
        }
        inputs_.push_back(makeTestImage(params_.width, params_.height,
                                        params_.seed + i, faces));
    }
    reset();
}

int
FaceDetectApp::levelCount() const
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
FaceDetectApp::levelDims(int level) const
{
    int w = params_.width, h = params_.height;
    for (int l = 0; l < level; ++l) {
        w /= 2;
        h /= 2;
    }
    return {w, h};
}

int
FaceDetectApp::bandsInLevel(int level) const
{
    auto [w, h] = levelDims(level);
    (void)w;
    return (h + params_.bandRows - 1) / params_.bandRows;
}

int
FaceDetectApp::cascadeDepth(const FdItem& item) const
{
    const GrayImage& codes = lbp_[item.image][item.level];
    // Each cascade stage samples kRingSamples LBP codes from a ring at
    // growing radius and requires enough uniform patterns. The planted
    // face pattern (high-contrast frame) yields uniform codes; texture
    // noise rarely does for all rings.
    const RingOffset* ring = ring_.data();
    for (int stage = 0; stage < kCascadeStages;
         ++stage, ring += kRingSamples) {
        int hits = 0;
        for (int k = 0; k < kRingSamples; ++k) {
            int x = std::clamp(item.a + ring[k].x, 0,
                               codes.width() - 1);
            int y = std::clamp(item.b + ring[k].y, 0,
                               codes.height() - 1);
            hits += kUniform[codes.at(x, y)];
        }
        if (hits < 12)
            return stage;
    }
    return kCascadeStages;
}

void
FaceDetectApp::reset()
{
    gray_.assign(params_.images,
                 GrayImage(params_.width, params_.height));
    levels_.assign(params_.images,
                   std::vector<GrayImage>(levelCount()));
    lbp_.assign(params_.images,
                std::vector<GrayImage>(levelCount()));
    detections_.clear();
}

void
FaceDetectApp::seedFlow(Seeder& seeder, int flow)
{
    std::vector<FdItem> bands;
    for (int b = 0; b < bandsInLevel(0); ++b)
        bands.push_back(FdItem{flow, 0, b, 0});
    seeder.insert<FdGrayscale>(std::move(bands));
}

void
FaceDetectApp::buildReference()
{
    // Sequential CPU pipeline: same math, canonical order.
    for (int i = 0; i < params_.images; ++i) {
        GrayImage level = referenceHistEq(
            referenceGrayscale(inputs_[i]));
        for (int l = 0; l < levelCount(); ++l) {
            if (l > 0)
                level = referenceDownsample(level);
            GrayImage codes(level.width(), level.height());
            lbpRows(level, codes, 0, level.height());
            lbp_[i][l] = std::move(codes);
            const FdParams& p = params_;
            for (int wy = 0; wy + p.window <= level.height();
                 wy += p.stride) {
                for (int wx = 0; wx + p.window <= level.width();
                     wx += p.stride) {
                    FdItem item{i, l, wx, wy};
                    if (cascadeDepth(item) == kCascadeStages)
                        refDetections_.emplace(i, l, wx, wy);
                }
            }
        }
    }
    refBuilt_ = true;
    reset();
}

bool
FaceDetectApp::verify()
{
    if (!refBuilt_) {
        std::vector<Detection> got = detections_;
        buildReference();
        detections_ = std::move(got);
    }
    std::set<Detection> got(detections_.begin(), detections_.end());
    return got == refDetections_;
}

} // namespace vp::facedetect
