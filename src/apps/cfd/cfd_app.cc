#include "apps/cfd/cfd_app.hh"

#include <algorithm>
#include <cmath>

#include "common/rng.hh"

namespace vp::cfd {

namespace {

constexpr int kThreads = 256;
constexpr float kCfl = 0.6f;

/**
 * Synthetic unstructured mesh: ring neighbors at these mixed strides,
 * in summation order, wrapped within each 1024-element composite.
 * Composites are therefore independent (frozen-ghost partitioning),
 * which permits the unsynchronized per-item pipelining the paper's
 * implementation exhibits while keeping results schedule-
 * independent. See DESIGN.md.
 */
constexpr int kStrides[4] = {1, -1, 37, -37};

/** Adds one stride's flux terms of @p count elements to acc: element
 *  l is mine[l] and its neighbour theirs[l]. */
void
addStrideTerms(const float* mine, const float* theirs, float* acc,
               int count, float sgn)
{
    for (int l = 0; l < count; ++l) {
        float m = mine[l];
        float t = theirs[l];
        // Simple upwind-style dissipative flux.
        acc[l] += 0.5f * (t - m) - 0.1f * (t + m) * sgn;
    }
}

} // namespace

void
computeStepFactor(const std::vector<float>& vars, std::vector<float>& sf,
                  int e0, int e1)
{
    const std::size_t n = sf.size();
    for (int e = e0; e < e1; ++e) {
        float rho = vars[0 * n + e];
        float mx = vars[1 * n + e];
        float my = vars[2 * n + e];
        float mz = vars[3 * n + e];
        float en = vars[4 * n + e];
        float inv_rho = 1.0f / rho;
        float speed2 = (mx * mx + my * my + mz * mz) * inv_rho
            * inv_rho;
        float pressure = 0.4f * (en - 0.5f * rho * speed2);
        float sound = std::sqrt(std::max(
            1e-6f, 1.4f * pressure * inv_rho));
        sf[e] = kCfl / (std::sqrt(speed2) + sound);
    }
}

void
computeFlux(const std::vector<float>& vars, std::vector<float>& flux,
            int e0, int e1)
{
    const std::size_t n = vars.size() / kCfdVars;
    VP_ASSERT(flux.size() == vars.size() && 0 <= e0 && e0 < e1
                  && static_cast<std::size_t>(e1) <= n,
              "cfd flux: [" << e0 << ", " << e1 << ") is no composite "
                            "of a " << n << "-element state");
    const int len = e1 - e0;
    for (int v = 0; v < kCfdVars; ++v) {
        const float* mine = vars.data() + v * n + e0;
        float* acc = flux.data() + v * n + e0;
        std::fill(acc, acc + len, 0.0f);
        for (int k = 0; k < 4; ++k) {
            const float sgn = k < 2 ? 1.0f : -1.0f;
            // Local l < len - shift reads l + shift; the rest wrap
            // around to [0, shift).
            const int shift = (kStrides[k] % len + len) % len;
            addStrideTerms(mine, mine + shift, acc, len - shift, sgn);
            addStrideTerms(mine + len - shift, mine, acc + len - shift,
                           shift, sgn);
        }
    }
}

void
timeStep(std::vector<float>& vars, const std::vector<float>& sf,
         const std::vector<float>& flux, int e0, int e1)
{
    const std::size_t n = sf.size();
    for (int v = 0; v < kCfdVars; ++v) {
        float* x = vars.data() + v * n;
        const float* f = flux.data() + v * n;
        for (int e = e0; e < e1; ++e)
            x[e] += sf[e] * 0.05f * f[e];
    }
}

CfdParams
CfdParams::small()
{
    CfdParams p;
    p.outerIters = 2;
    return p;
}

// ------------------------------ stages -------------------------- //

StepFactorStage::StepFactorStage(CfdApp& app)
    : app_(app)
{
    name = "step_factor";
    threadNum = 128;
    blockThreads = 128; // narrow blocks co-reside with flux
    resources.regsPerThread = 56;  // 4 blocks/SM (paper sec 8.3)
    resources.codeBytes = 7168;
}

TaskCost
StepFactorStage::cost(const CfdItem&) const
{
    double per_thread = double(app_.params_.blockElems) / threadNum;
    TaskCost c;
    c.computeInsts = per_thread * 14.0;
    c.memInsts = per_thread * 6.0;
    c.l1HitRate = 0.55;
    return c;
}

void
StepFactorStage::execute(ExecContext& ctx, CfdItem& item)
{
    auto [e0, e1] = app_.composite(item.block);
    computeStepFactor(app_.vars_, app_.stepFactor_, e0, e1);
    ctx.enqueue<FluxStage>(CfdItem{item.block, item.outer, 1});
}

FluxStage::FluxStage(CfdApp& app)
    : app_(app)
{
    name = "flux";
    threadNum = kThreads;
    resources.regsPerThread = 90;  // 2 blocks/SM (paper: occupancy-
    resources.codeBytes = 18432;   // limited heavy stage)
}

TaskCost
FluxStage::cost(const CfdItem&) const
{
    double per_thread = double(app_.params_.blockElems) / kThreads;
    TaskCost c;
    c.computeInsts = per_thread * 150.0;
    c.memInsts = per_thread * 44.0;
    c.l1HitRate = 0.45;
    return c;
}

void
FluxStage::execute(ExecContext& ctx, CfdItem& item)
{
    auto [e0, e1] = app_.composite(item.block);
    computeFlux(app_.vars_, app_.flux_, e0, e1);
    ctx.enqueue<TimeStepStage>(item);
}

TimeStepStage::TimeStepStage(CfdApp& app)
    : app_(app)
{
    name = "time_step";
    threadNum = 128;
    blockThreads = 128; // narrow blocks co-reside with flux
    resources.regsPerThread = 80;  // 3 blocks/SM
    resources.codeBytes = 7680;
}

TaskCost
TimeStepStage::cost(const CfdItem&) const
{
    double per_thread = double(app_.params_.blockElems) / threadNum;
    TaskCost c;
    c.computeInsts = per_thread * 16.0;
    c.memInsts = per_thread * 11.0;
    c.l1HitRate = 0.50;
    return c;
}

void
TimeStepStage::execute(ExecContext& ctx, CfdItem& item)
{
    auto [e0, e1] = app_.composite(item.block);
    timeStep(app_.vars_, app_.stepFactor_, app_.flux_, e0, e1);

    // Composites are independent (block-local neighbors), so each
    // chains through its own loop iterations without global
    // synchronization — the task parallelism VersaPipe exploits.
    if (item.inner < app_.params_.innerIters) {
        ctx.enqueue<FluxStage>(
            CfdItem{item.block, item.outer, item.inner + 1});
    } else if (item.outer < app_.params_.outerIters) {
        ctx.enqueue<StepFactorStage>(
            CfdItem{item.block, item.outer + 1, 0});
    }
    // else: this composite is done.
}

// ------------------------------ driver -------------------------- //

CfdApp::CfdApp(CfdParams params)
    : params_(params)
{
    // blockElems first: the modulo below divides by it.
    VP_CHECK(params_.blockElems > 0
                 && params_.elements >= params_.blockElems
                 && params_.elements % params_.blockElems == 0,
             ErrorCode::Config,
             "cfd: elements must be a positive multiple of a positive "
             "blockElems");
    VP_CHECK(params_.outerIters > 0 && params_.innerIters > 0,
             ErrorCode::Config,
             "cfd: outerIters and innerIters must be positive");
    pipe_.addStage<StepFactorStage>(*this);
    pipe_.addStage<FluxStage>(*this);
    pipe_.addStage<TimeStepStage>(*this);
    pipe_.link<StepFactorStage, FluxStage>();
    pipe_.link<FluxStage, TimeStepStage>();
    pipe_.link<TimeStepStage, FluxStage>();       // inner loop
    pipe_.link<TimeStepStage, StepFactorStage>(); // outer loop
    pipe_.setStructure(PipelineStructure::Loop);

    // Free-stream-ish initial conditions with a perturbation.
    int n = params_.elements;
    Rng rng(params_.seed);
    initialVars_.resize(static_cast<std::size_t>(n) * kCfdVars);
    for (int e = 0; e < n; ++e) {
        float bump = 0.05f * float(rng.nextDouble());
        initialVars_[0 * n + e] = 1.0f + bump;            // density
        initialVars_[1 * n + e] = 0.3f + 0.01f * bump;    // mom x
        initialVars_[2 * n + e] = 0.02f * bump;           // mom y
        initialVars_[3 * n + e] = 0.0f;                   // mom z
        initialVars_[4 * n + e] = 2.5f + bump;            // energy
    }
    reset();
}

int
CfdApp::blocks() const
{
    return params_.elements / params_.blockElems;
}

std::pair<int, int>
CfdApp::composite(int block) const
{
    VP_ASSERT(block >= 0 && block < blocks(),
              "cfd: no composite " << block << " of " << blocks());
    int e0 = block * params_.blockElems;
    return {e0, e0 + params_.blockElems};
}

void
CfdApp::refRun(std::vector<float>& vars) const
{
    int n = params_.elements;
    std::vector<float> sf(n);
    std::vector<float> flux(static_cast<std::size_t>(n) * kCfdVars);
    for (int outer = 0; outer < params_.outerIters; ++outer) {
        computeStepFactor(vars, sf, 0, n);
        for (int inner = 0; inner < params_.innerIters; ++inner) {
            for (int b = 0; b < blocks(); ++b) {
                auto [e0, e1] = composite(b);
                computeFlux(vars, flux, e0, e1);
            }
            timeStep(vars, sf, flux, 0, n);
        }
    }
}

void
CfdApp::reset()
{
    vars_ = initialVars_;
    stepFactor_.assign(params_.elements, 0.0f);
    flux_.assign(static_cast<std::size_t>(params_.elements) * kCfdVars,
                 0.0f);
}

void
CfdApp::seedFlow(Seeder& seeder, int)
{
    std::vector<CfdItem> wave;
    for (int b = 0; b < blocks(); ++b)
        wave.push_back(CfdItem{b, 1, 0});
    seeder.insert<StepFactorStage>(std::move(wave));
}

std::uint64_t
CfdApp::densityChecksum() const
{
    std::uint64_t h = 1469598103934665603ULL;
    int n = params_.elements;
    for (int e = 0; e < n; ++e) {
        std::uint32_t bits;
        float v = vars_[e];
        static_assert(sizeof(bits) == sizeof(v));
        __builtin_memcpy(&bits, &v, sizeof(bits));
        h ^= bits;
        h *= 1099511628211ULL;
    }
    return h;
}

bool
CfdApp::verify()
{
    if (!refBuilt_) {
        std::vector<float> ref = initialVars_;
        refRun(ref);
        std::uint64_t h = 1469598103934665603ULL;
        for (int e = 0; e < params_.elements; ++e) {
            std::uint32_t bits;
            __builtin_memcpy(&bits, &ref[e], sizeof(bits));
            h ^= bits;
            h *= 1099511628211ULL;
        }
        refChecksum_ = h;
        refBuilt_ = true;
    }
    return densityChecksum() == refChecksum_;
}

} // namespace vp::cfd
