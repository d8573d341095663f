#include "apps/ldpc/ldpc_app.hh"

#include <algorithm>
#include <cmath>

#include "common/rng.hh"

namespace vp::ldpc {

namespace {
constexpr int kThreads = 256;
constexpr float kLlrMag = 4.0f;
} // namespace

void
minSumC2v(const std::vector<float>& v2c, std::vector<float>& c2v,
          int checkDeg)
{
    const std::size_t dc = static_cast<std::size_t>(checkDeg);
    for (std::size_t base = 0; base + dc <= v2c.size(); base += dc) {
        // 1e30 stands for "no other edge", as in the per-edge form.
        // The minima are selected, never computed, so they are the
        // per-edge form's exact floats.
        float min1 = 1e30f;
        float min2 = 1e30f;
        std::size_t argMin = dc;
        float sign = 1.0f;
        for (std::size_t j = 0; j < dc; ++j) {
            float m = v2c[base + j];
            sign *= (m < 0.0f) ? -1.0f : 1.0f;
            float mag = std::fabs(m);
            if (mag < min1) {
                min2 = min1;
                min1 = mag;
                argMin = j;
            } else if (mag < min2) {
                min2 = mag;
            }
        }
        for (std::size_t k = 0; k < dc; ++k) {
            // Every factor is +-1, so multiplying this edge's own
            // sign back out of the product is exact.
            float others =
                sign * ((v2c[base + k] < 0.0f) ? -1.0f : 1.0f);
            float mag = k == argMin ? min2 : min1;
            c2v[base + k] = 0.8f * others * mag; // normalized min-sum
        }
    }
}

LdpcParams
LdpcParams::small()
{
    LdpcParams p;
    p.frames = 12;
    p.n = 256;
    p.iterations = 4;
    return p;
}

// ------------------------------ stages -------------------------- //

InitStage::InitStage(LdpcApp& app)
    : app_(app)
{
    name = "ldpc_init";
    threadNum = kThreads;
    retryable = true; // idempotent per-frame writes
    resources.regsPerThread = 56;  // 4 blocks/SM (paper sec 8.3)
    resources.codeBytes = 6144;
    kbkHostBytesPerItem = 1024;    // channel values uploaded per frame
}

TaskCost
InitStage::cost(const LdpcItem&) const
{
    double per_thread = double(app_.edges()) / kThreads;
    TaskCost c;
    c.computeInsts = per_thread * 8.0;
    c.memInsts = per_thread * 5.0;
    c.l1HitRate = 0.6;
    return c;
}

void
InitStage::execute(ExecContext& ctx, LdpcItem& item)
{
    LdpcApp& a = app_;
    int f = item.frame;
    // v2c messages start at the channel LLRs.
    for (int v = 0; v < a.params_.n; ++v) {
        for (int k = 0; k < a.params_.varDeg; ++k) {
            int e = a.varEdges_[static_cast<std::size_t>(v)
                                * a.params_.varDeg + k];
            a.v2c_[f][e] = a.llr_[f][v];
        }
    }
    ctx.enqueue<C2vStage>(LdpcItem{f, 1, 0});
}

C2vStage::C2vStage(LdpcApp& app)
    : app_(app)
{
    name = "ldpc_c2v";
    threadNum = kThreads;
    retryable = true; // reads v2c, writes c2v: idempotent
    resources.regsPerThread = 48;  // 5 blocks/SM (paper sec 8.3)
    resources.codeBytes = 9216;
}

TaskCost
C2vStage::cost(const LdpcItem&) const
{
    double per_thread = double(app_.edges()) / kThreads;
    TaskCost c;
    c.computeInsts = per_thread * 30.0;
    c.memInsts = per_thread * 10.0;
    c.l1HitRate = 0.65;
    return c;
}

void
C2vStage::execute(ExecContext& ctx, LdpcItem& item)
{
    minSumC2v(app_.v2c_[item.frame], app_.c2v_[item.frame],
              app_.params_.checkDeg);
    ctx.enqueue<V2cStage>(item);
}

V2cStage::V2cStage(LdpcApp& app)
    : app_(app)
{
    name = "ldpc_v2c";
    threadNum = kThreads;
    retryable = true; // reads llr/c2v, writes v2c: idempotent
    resources.regsPerThread = 48;  // 5 blocks/SM
    resources.codeBytes = 8192;
}

TaskCost
V2cStage::cost(const LdpcItem&) const
{
    double per_thread = double(app_.edges()) / kThreads;
    TaskCost c;
    c.computeInsts = per_thread * 20.0;
    c.memInsts = per_thread * 8.0;
    c.l1HitRate = 0.65;
    return c;
}

void
V2cStage::execute(ExecContext& ctx, LdpcItem& item)
{
    LdpcApp& a = app_;
    a.doV2c(a.llr_[item.frame], a.c2v_[item.frame],
            a.v2c_[item.frame]);
    if (item.iter < a.params_.iterations)
        ctx.enqueue<C2vStage>(LdpcItem{item.frame, item.iter + 1, 0});
    else
        ctx.enqueue<ProbVarStage>(LdpcItem{item.frame, item.iter, 1});
}

ProbVarStage::ProbVarStage(LdpcApp& app)
    : app_(app)
{
    name = "ldpc_probvar";
    threadNum = kThreads;
    retryable = true; // overwrites its frame's decision: idempotent
    resources.regsPerThread = 56;  // 4 blocks/SM
    resources.codeBytes = 9728;
    kbkHostBytesPerItem = 128;     // decisions downloaded per frame
}

TaskCost
ProbVarStage::cost(const LdpcItem&) const
{
    double per_thread = double(app_.params_.n) / kThreads;
    TaskCost c;
    c.computeInsts = per_thread * 8.0;
    c.memInsts = per_thread * 4.0;
    c.l1HitRate = 0.7;
    return c;
}

void
ProbVarStage::execute(ExecContext&, LdpcItem& item)
{
    LdpcApp& a = app_;
    a.decoded_[item.frame] = a.decide(a.llr_[item.frame],
                                      a.c2v_[item.frame]);
}

// ------------------------------ driver -------------------------- //

LdpcApp::LdpcApp(LdpcParams params)
    : params_(params)
{
    VP_CHECK(params_.frames > 0 && params_.n > 0
             && params_.varDeg > 0 && params_.checkDeg > 0,
             ErrorCode::Config,
             "ldpc: frames, n, varDeg and checkDeg must be positive");
    VP_CHECK((params_.n * params_.varDeg) % params_.checkDeg == 0,
             ErrorCode::Config,
             "ldpc: edges must divide evenly into checks");

    pipe_.addStage<InitStage>(*this);
    pipe_.addStage<C2vStage>(*this);
    pipe_.addStage<V2cStage>(*this);
    pipe_.addStage<ProbVarStage>(*this);
    pipe_.link<InitStage, C2vStage>();
    pipe_.link<C2vStage, V2cStage>();
    pipe_.link<V2cStage, C2vStage>(); // decoding iterations
    pipe_.link<V2cStage, ProbVarStage>();
    pipe_.setStructure(PipelineStructure::Loop);
    pipe_.megakernelExtraRegs = 4; // 56 + 4 = 60 (paper: 4 blocks/SM)

    // Tanner graph: edges grouped by check; a deterministic shuffled
    // permutation connects edge slots to variables.
    int e = edges();
    edgeVar_.resize(e);
    std::vector<std::int32_t> perm(e);
    for (int i = 0; i < e; ++i)
        perm[i] = i % params_.n; // each variable appears varDeg times
    Rng rng(params_.seed);
    for (int i = e - 1; i > 0; --i) {
        int j = static_cast<int>(rng.nextBelow(i + 1));
        std::swap(perm[i], perm[j]);
    }
    for (int i = 0; i < e; ++i)
        edgeVar_[i] = perm[i];
    varEdges_.assign(static_cast<std::size_t>(params_.n)
                     * params_.varDeg, 0);
    std::vector<int> fill(params_.n, 0);
    for (int i = 0; i < e; ++i) {
        int v = edgeVar_[i];
        varEdges_[static_cast<std::size_t>(v) * params_.varDeg
                  + fill[v]++] = i;
    }

    // Transmit all-zero codewords over a binary symmetric channel.
    llr_.resize(params_.frames);
    sent_.resize(params_.frames);
    Rng chan(params_.seed * 31 + 7);
    for (int f = 0; f < params_.frames; ++f) {
        sent_[f].assign(params_.n, 0);
        llr_[f].resize(params_.n);
        for (int v = 0; v < params_.n; ++v) {
            bool flipped = chan.nextBool(params_.flipProb);
            llr_[f][v] = flipped ? -kLlrMag : kLlrMag;
        }
    }
    reset();
}

void
LdpcApp::doV2c(const std::vector<float>& llr,
               const std::vector<float>& c2v,
               std::vector<float>& v2c) const
{
    int dv = params_.varDeg;
    for (int v = 0; v < params_.n; ++v) {
        float total = llr[v];
        for (int k = 0; k < dv; ++k)
            total += c2v[varEdges_[static_cast<std::size_t>(v) * dv
                                   + k]];
        for (int k = 0; k < dv; ++k) {
            int e = varEdges_[static_cast<std::size_t>(v) * dv + k];
            v2c[e] = total - c2v[e];
        }
    }
}

std::vector<std::uint8_t>
LdpcApp::decide(const std::vector<float>& llr,
                const std::vector<float>& c2v) const
{
    int dv = params_.varDeg;
    std::vector<std::uint8_t> out(params_.n);
    for (int v = 0; v < params_.n; ++v) {
        float total = llr[v];
        for (int k = 0; k < dv; ++k)
            total += c2v[varEdges_[static_cast<std::size_t>(v) * dv
                                   + k]];
        out[v] = total < 0.0f ? 1 : 0;
    }
    return out;
}

std::vector<std::uint8_t>
LdpcApp::refDecode(const std::vector<float>& llr) const
{
    std::vector<float> v2c(edges());
    std::vector<float> c2v(edges(), 0.0f);
    for (int v = 0; v < params_.n; ++v)
        for (int k = 0; k < params_.varDeg; ++k)
            v2c[varEdges_[static_cast<std::size_t>(v)
                          * params_.varDeg + k]] = llr[v];
    for (int it = 0; it < params_.iterations; ++it) {
        minSumC2v(v2c, c2v, params_.checkDeg);
        doV2c(llr, c2v, v2c);
    }
    return decide(llr, c2v);
}

void
LdpcApp::reset()
{
    v2c_.assign(params_.frames, std::vector<float>(edges(), 0.0f));
    c2v_.assign(params_.frames, std::vector<float>(edges(), 0.0f));
    decoded_.assign(params_.frames, {});
}

void
LdpcApp::seedFlow(Seeder& seeder, int)
{
    std::vector<LdpcItem> frames;
    for (int f = 0; f < params_.frames; ++f)
        frames.push_back(LdpcItem{f, 0, 0});
    seeder.insert<InitStage>(std::move(frames));
}

int
LdpcApp::correctedFrames() const
{
    int good = 0;
    for (int f = 0; f < params_.frames; ++f)
        good += decoded_[f] == sent_[f];
    return good;
}

bool
LdpcApp::verify()
{
    if (!refBuilt_) {
        refDecoded_.resize(params_.frames);
        for (int f = 0; f < params_.frames; ++f)
            refDecoded_[f] = refDecode(llr_[f]);
        refBuilt_ = true;
    }
    for (int f = 0; f < params_.frames; ++f) {
        if (decoded_[f] != refDecoded_[f])
            return false;
    }
    return true;
}

} // namespace vp::ldpc
