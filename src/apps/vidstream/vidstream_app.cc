#include "apps/vidstream/vidstream_app.hh"

#include <algorithm>

#include "common/error.hh"

namespace vp::vidstream {

namespace {

/** splitmix64 finalizer: the pure hash behind every pixel/walk value. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Uniform double in [0, 1) from a hash input. */
double
unit(std::uint64_t x)
{
    return static_cast<double>(mix(x) >> 11) * 0x1.0p-53;
}

/** Key for one (cam, frame, extra) coordinate. */
std::uint64_t
key(std::uint64_t seed, int cam, int frame, int a = 0, int b = 0)
{
    std::uint64_t k = seed;
    k = mix(k ^ (static_cast<std::uint64_t>(cam) + 1));
    k = mix(k ^ (static_cast<std::uint64_t>(frame) + 0x10001));
    k = mix(k ^ (static_cast<std::uint64_t>(a) + 0x20002));
    k = mix(k ^ (static_cast<std::uint64_t>(b) + 0x30003));
    return k;
}

constexpr int kLumaSamples = 96; //!< decode sample-grid points
constexpr int kRoiGrid = 8;      //!< extract samples per ROI axis

} // namespace

VsParams
VsParams::small()
{
    VsParams p;
    p.cameras = 2;
    p.frames = 12;
    p.width = 320;
    p.height = 180;
    p.maxFaces = 4;
    p.driftPeriod = 4;
    p.filterWindow = 4;
    return p;
}

// ------------------------------ stages -------------------------- //

VsDecode::VsDecode(VidstreamApp& app)
    : app_(app)
{
    name = "vs_decode";
    threadNum = 256;
    resources.regsPerThread = 48; // 5 blocks/SM
    resources.codeBytes = 9216;
}

TaskCost
VsDecode::cost(const VsItem&) const
{
    double px = double(app_.params_.width) * app_.params_.height
        / threadNum;
    TaskCost c;
    c.computeInsts = px * 5.0; // entropy decode + dequant + luma
    c.memInsts = px * 2.5;
    c.l1HitRate = 0.60;
    return c;
}

void
VsDecode::execute(ExecContext& ctx, VsItem& item)
{
    app_.luma_[app_.slot(item.cam, item.frame)] =
        app_.signals_.lumaOf(item.cam, item.frame);
    ctx.enqueue<VsDetect>(VsItem{item.cam, item.frame, 0, 0});
}

VsDetect::VsDetect(VidstreamApp& app)
    : app_(app)
{
    name = "vs_detect";
    threadNum = 128;
    resources.regsPerThread = 64; // 4 blocks/SM
    resources.codeBytes = 14336;
}

TaskCost
VsDetect::cost(const VsItem&) const
{
    double px = double(app_.params_.width) * app_.params_.height
        / threadNum;
    TaskCost c;
    c.computeInsts = px * 9.0; // sliding-window classifier sweep
    c.memInsts = px * 4.0;
    c.serialInsts = 800.0; // detection NMS on one lane
    c.l1HitRate = 0.65;
    return c;
}

void
VsDetect::execute(ExecContext& ctx, VsItem& item)
{
    std::size_t s = app_.slot(item.cam, item.frame);
    int n = app_.signals_.faceCount(item.cam, item.frame);
    app_.faces_[s] = n;
    app_.faceRemaining_[s] = n;
    if (n == 0) {
        // An empty scene still counts as a fully analyzed frame.
        ++app_.framesFiltered_;
        return;
    }
    for (int f = 0; f < n; ++f)
        ctx.enqueue<VsTrack>(VsItem{item.cam, item.frame, f, 0});
}

VsTrack::VsTrack(VidstreamApp& app)
    : app_(app)
{
    name = "vs_track";
    threadNum = 64;
    resources.regsPerThread = 40; // 6 blocks/SM
    resources.codeBytes = 6144;
}

TaskCost
VsTrack::cost(const VsItem&) const
{
    double px = double(app_.params_.roi) * app_.params_.roi * 4.0
        / threadNum; // 4 candidate offsets per ROI pixel
    TaskCost c;
    c.computeInsts = px * 6.0;
    c.memInsts = px * 3.0;
    c.l1HitRate = 0.75;
    return c;
}

void
VsTrack::execute(ExecContext& ctx, VsItem& item)
{
    auto [x, y] = app_.roiOf(item.cam, item.frame, item.face);
    ctx.enqueue<VsExtract>(
        VsItem{item.cam, item.frame, item.face,
               static_cast<std::int32_t>((x << 16) | y)});
}

VsExtract::VsExtract(VidstreamApp& app)
    : app_(app)
{
    name = "vs_extract";
    threadNum = 64;
    resources.regsPerThread = 44; // 5 blocks/SM
    resources.codeBytes = 7168;
}

TaskCost
VsExtract::cost(const VsItem&) const
{
    double px = double(app_.params_.roi) * app_.params_.roi
        / threadNum;
    TaskCost c;
    c.computeInsts = px * 4.0; // spatial mean + skin-mask weighting
    c.memInsts = px * 2.0;
    c.l1HitRate = 0.80;
    return c;
}

void
VsExtract::execute(ExecContext& ctx, VsItem& item)
{
    std::size_t s = app_.slot(item.cam, item.frame);
    app_.samples_[s * app_.params_.maxFaces + item.face] =
        app_.signals_.sampleOf(item.cam, item.frame, item.face);
    ctx.enqueue<VsFilter>(item);
}

VsFilter::VsFilter(VidstreamApp& app)
    : app_(app)
{
    name = "vs_filter";
    threadNum = 32;
    resources.regsPerThread = 32; // 8 blocks/SM
    resources.codeBytes = 4096;
}

TaskCost
VsFilter::cost(const VsItem&) const
{
    TaskCost c;
    // One tap re-derives its sample from the ROI grid.
    double taps = app_.params_.filterWindow;
    c.computeInsts = taps * 70.0;
    c.memInsts = taps * 12.0;
    c.l1HitRate = 0.85;
    return c;
}

void
VsFilter::execute(ExecContext&, VsItem& item)
{
    std::size_t s = app_.slot(item.cam, item.frame);
    app_.filtered_[s * app_.params_.maxFaces + item.face] =
        app_.signals_.filteredOf(item.cam, item.frame, item.face);
    if (--app_.faceRemaining_[s] == 0)
        ++app_.framesFiltered_;
}

// ------------------------------ driver -------------------------- //

VidstreamApp::VidstreamApp(VsParams params)
    : params_(params)
{
    VP_CHECK(params_.cameras > 0 && params_.frames > 0
                 && params_.maxFaces > 0 && params_.driftPeriod > 0
                 && params_.filterWindow > 0 && params_.roi > 0
                 && params_.width >= params_.roi
                 && params_.height >= params_.roi,
             ErrorCode::Config,
             "vidstream: counts and sizes must be positive, and the "
             "frame at least one roi wide and high");
    pipe_.addStage<VsDecode>(*this);
    pipe_.addStage<VsDetect>(*this);
    pipe_.addStage<VsTrack>(*this);
    pipe_.addStage<VsExtract>(*this);
    pipe_.addStage<VsFilter>(*this);
    pipe_.link<VsDecode, VsDetect>();
    pipe_.link<VsDetect, VsTrack>();
    pipe_.link<VsTrack, VsExtract>();
    pipe_.link<VsExtract, VsFilter>();
    pipe_.setStructure(PipelineStructure::Linear);
    pipe_.megakernelExtraRegs = 12;
    reset();
}

std::size_t
VidstreamApp::slot(int cam, int frame) const
{
    // Serving streams run past the batch horizon; slots wrap. Every
    // stored value is a pure function of (cam, frame), so a wrapped
    // overwrite is still deterministic run-to-run.
    return static_cast<std::size_t>(cam)
        * static_cast<std::size_t>(params_.frames)
        + static_cast<std::size_t>(frame % params_.frames);
}

int
VidstreamApp::firstFaces(int cam) const
{
    std::uint64_t k0 = key(params_.seed, cam, -1);
    return 1
        + static_cast<int>(mix(k0)
                           % static_cast<std::uint64_t>(
                               params_.maxFaces / 2 + 1));
}

int
VidstreamApp::walkFaces(int cam, int from, int n, int to) const
{
    for (int w = from + 1; w <= to; ++w) {
        std::uint64_t r = key(params_.seed, cam, -2, w);
        int step = static_cast<int>(r % 3) - 1;
        n = std::clamp(n + step, 0, params_.maxFaces);
    }
    return n;
}

int
VidstreamApp::faceCount(int cam, int frame) const
{
    // Bounded random walk, one +/-1/0 step per drift window: faces
    // enter and leave the scene, so per-frame fan-out is
    // non-stationary but piecewise constant and a pure function of
    // (seed, cam, frame).
    return walkFaces(cam, 0, firstFaces(cam), frame / params_.driftPeriod);
}

double
VidstreamApp::lumaOf(int cam, int frame) const
{
    // Mean luma over a fixed sample grid of hashed pixels, modulated
    // by a slow scene-brightness drift.
    double sum = 0.0;
    for (int i = 0; i < kLumaSamples; ++i)
        sum += unit(key(params_.seed, cam, frame, 0x40000 + i));
    double mean = sum / kLumaSamples;
    double drift = 0.15
        * unit(key(params_.seed, cam, frame / params_.driftPeriod,
                   0x50000));
    return 0.25 + 0.5 * mean + drift;
}

std::pair<int, int>
VidstreamApp::roiOf(int cam, int frame, int face) const
{
    int maxX = params_.width - params_.roi;
    int maxY = params_.height - params_.roi;
    // Seeded anchor per face plus a small per-window wander.
    std::uint64_t a = key(params_.seed, cam, -3, face);
    int ax = static_cast<int>(a % static_cast<std::uint64_t>(maxX + 1));
    int ay = static_cast<int>((a >> 20)
                              % static_cast<std::uint64_t>(maxY + 1));
    std::uint64_t w =
        key(params_.seed, cam, frame / params_.driftPeriod, face,
            0x60000);
    int dx = static_cast<int>(w % 17) - 8;
    int dy = static_cast<int>((w >> 8) % 17) - 8;
    return {std::clamp(ax + dx, 0, maxX), std::clamp(ay + dy, 0, maxY)};
}

double
VidstreamApp::sampleWith(int cam, int frame, int face, double luma) const
{
    auto [x0, y0] = roiOf(cam, frame, face);
    // Mean hashed-pixel luma over an 8x8 grid inside the ROI,
    // blended with the frame's global luma (rPPG-style raw signal).
    double sum = 0.0;
    int step = std::max(1, params_.roi / kRoiGrid);
    for (int gy = 0; gy < kRoiGrid; ++gy) {
        for (int gx = 0; gx < kRoiGrid; ++gx) {
            int x = x0 + gx * step;
            int y = y0 + gy * step;
            sum += unit(key(params_.seed, cam, frame, x, y + 0x70000));
        }
    }
    double roiMean = sum / (kRoiGrid * kRoiGrid);
    return 0.6 * roiMean + 0.4 * luma;
}

double
VidstreamApp::sampleOf(int cam, int frame, int face) const
{
    return sampleWith(cam, frame, face, lumaOf(cam, frame));
}

template <typename Sample>
double
VidstreamApp::filterOver(int frame, Sample sample) const
{
    // Triangular-weighted average over the face's own recent sample
    // window. @p sample gives the pure model's value (recomputed, or
    // memoized under its exact coordinates), never state written by
    // other frames' items — execution order across frames cannot
    // change the result.
    int window = std::min(params_.filterWindow, frame + 1);
    double acc = 0.0;
    double wsum = 0.0;
    for (int k = 0; k < window; ++k) {
        double w = params_.filterWindow - k;
        acc += w * sample(frame - k);
        wsum += w;
    }
    return acc / wsum;
}

double
VidstreamApp::filteredOf(int cam, int frame, int face) const
{
    return filterOver(frame,
                      [&](int f) { return sampleOf(cam, f, face); });
}

// --------------------------- signal memo ------------------------ //

void
VsSignalCache::clear()
{
    const VsParams& p = app_.params();
    depth_ = 2 * p.filterWindow;
    std::size_t slots = static_cast<std::size_t>(p.cameras)
        * static_cast<std::size_t>(depth_);
    luma_.assign(slots, Entry{});
    samples_.assign(slots * static_cast<std::size_t>(p.maxFaces), Entry{});
    walk_.clear();
    for (int cam = 0; cam < p.cameras; ++cam)
        walk_.emplace_back(0, app_.firstFaces(cam));
}

std::size_t
VsSignalCache::slot(int cam, int frame) const
{
    return static_cast<std::size_t>(cam)
        * static_cast<std::size_t>(depth_)
        + static_cast<std::size_t>(frame % depth_);
}

int
VsSignalCache::faceCount(int cam, int frame)
{
    auto& [window, n] = walk_[static_cast<std::size_t>(cam)];
    int to = frame / app_.params().driftPeriod;
    if (to < window) {
        window = 0;
        n = app_.firstFaces(cam);
    }
    n = app_.walkFaces(cam, window, n, to);
    window = to;
    return n;
}

double
VsSignalCache::lumaOf(int cam, int frame)
{
    Entry& e = luma_[slot(cam, frame)];
    if (e.frame != frame)
        e = Entry{frame, app_.lumaOf(cam, frame)};
    return e.value;
}

double
VsSignalCache::sampleOf(int cam, int frame, int face)
{
    Entry& e = samples_[slot(cam, frame)
                            * static_cast<std::size_t>(
                                app_.params().maxFaces)
                        + static_cast<std::size_t>(face)];
    if (e.frame != frame)
        e = Entry{frame,
                  app_.sampleWith(cam, frame, face, lumaOf(cam, frame))};
    return e.value;
}

double
VsSignalCache::filteredOf(int cam, int frame, int face)
{
    return app_.filterOver(
        frame, [&](int f) { return sampleOf(cam, f, face); });
}

double
VidstreamApp::inputBytes() const
{
    // One YUV420 frame: the stream arrives on the frame clock, so only
    // the frame currently being decoded is staged host-side.  Charging
    // the whole batch here would serialize every frame behind a giant
    // up-front copy and swamp the per-frame deadline accounting.
    return 1.5 * params_.width * params_.height;
}

void
VidstreamApp::reset()
{
    std::size_t frameSlots = static_cast<std::size_t>(params_.cameras)
        * static_cast<std::size_t>(params_.frames);
    std::size_t faceSlots =
        frameSlots * static_cast<std::size_t>(params_.maxFaces);
    luma_.assign(frameSlots, 0.0);
    faces_.assign(frameSlots, 0);
    faceRemaining_.assign(frameSlots, 0);
    samples_.assign(faceSlots, 0.0);
    filtered_.assign(faceSlots, 0.0);
    framesFiltered_ = 0;
    nextFrame_.assign(static_cast<std::size_t>(params_.cameras), 0);
    signals_.clear();
}

void
VidstreamApp::seedFlow(Seeder& seeder, int flow)
{
    std::vector<VsItem> frames;
    frames.reserve(static_cast<std::size_t>(params_.frames));
    for (int f = 0; f < params_.frames; ++f)
        frames.push_back(VsItem{flow, f, 0, 0});
    seeder.insert<VsDecode>(std::move(frames));
}

void
VidstreamApp::seedFrame(Seeder& seeder, int cam)
{
    int frame = nextFrame_[static_cast<std::size_t>(cam)]++;
    std::vector<VsItem> one{VsItem{cam, frame, 0, 0}};
    seeder.insert<VsDecode>(std::move(one));
}

void
VidstreamApp::buildReference()
{
    refFaces_.assign(faces_.size(), 0);
    refFiltered_.assign(filtered_.size(), 0.0);
    for (int c = 0; c < params_.cameras; ++c) {
        for (int f = 0; f < params_.frames; ++f) {
            std::size_t s = slot(c, f);
            int n = faceCount(c, f);
            refFaces_[s] = n;
            for (int face = 0; face < n; ++face) {
                refFiltered_[s * params_.maxFaces + face] =
                    filteredOf(c, f, face);
            }
        }
    }
    refBuilt_ = true;
}

bool
VidstreamApp::verify()
{
    if (!refBuilt_)
        buildReference();
    return faces_ == refFaces_ && filtered_ == refFiltered_;
}

} // namespace vp::vidstream
