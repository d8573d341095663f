/**
 * @file
 * CFD solver application (paper Fig. 15, Rodinia euler3d-style): a
 * 3-stage loop pipeline — compute Step Factor -> compute Flux ->
 * Time Step — iterated innerIters times per outer iteration over a
 * synthetic unstructured mesh. Data items are composites of 1024
 * elements (the paper's granularity note in sec 6).
 */

#ifndef VP_APPS_CFD_CFD_APP_HH
#define VP_APPS_CFD_CFD_APP_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "core/versapipe.hh"

namespace vp::cfd {

/** Workload parameters. */
struct CfdParams
{
    /** Mesh elements (composited into 1024-element items). */
    int elements = 96 * 1024;
    int blockElems = 1024;
    /**
     * Outer iterations. The paper runs 2000; the default here is
     * scaled down so simulations stay fast — model comparisons are
     * iteration-count invariant (see EXPERIMENTS.md).
     */
    int outerIters = 16;
    int innerIters = 3; //!< paper: 3 (RK steps)
    std::uint64_t seed = 20170404;

    static CfdParams small();
};

/** Data item (Table 2: 12 B): one 1024-element composite. */
struct CfdItem
{
    std::int32_t block;
    std::int32_t outer;
    std::int32_t inner;
};
static_assert(sizeof(CfdItem) == 12, "paper reports 12-byte items");

/** Conserved variables per element: density, 3 x momentum, energy.
 *  A state holds them as planes: variable v of element e is at
 *  v * n + e for an n-element mesh. */
inline constexpr int kCfdVars = 5;

// The kernels below read the mesh size n from their arguments: a
// state or flux vector holds kCfdVars * n floats, a step-factor
// vector n.

/** Local time-step factor of elements [e0, e1). */
void computeStepFactor(const std::vector<float>& vars,
                       std::vector<float>& sf, int e0, int e1);

/**
 * Flux of one composite, elements [e0, e1). The composite is a ring:
 * local element l has the neighbours (l + s) mod (e1 - e0) for the
 * strides s = +1, -1, +37, -37, in that order. Each of an element's
 * kCfdVars sums starts at +0.0f and adds one upwind-style term per
 * neighbour, the last two with the opposite sign. A stride shifts
 * the ring, so the kernel walks each one as two contiguous segments,
 * variable by variable.
 */
void computeFlux(const std::vector<float>& vars,
                 std::vector<float>& flux, int e0, int e1);

/** Explicit Euler update of elements [e0, e1), variable by variable:
 *  vars += sf * 0.05f * flux. */
void timeStep(std::vector<float>& vars, const std::vector<float>& sf,
              const std::vector<float>& flux, int e0, int e1);

class CfdApp;

/** Per-element local time-step factor. */
class StepFactorStage : public Stage<CfdItem>
{
  public:
    explicit StepFactorStage(CfdApp& app);
    TaskCost cost(const CfdItem& item) const override;
    void execute(ExecContext& ctx, CfdItem& item) override;

  private:
    CfdApp& app_;
};

/** Numerical flux over element faces (the heavy stage). */
class FluxStage : public Stage<CfdItem>
{
  public:
    explicit FluxStage(CfdApp& app);
    TaskCost cost(const CfdItem& item) const override;
    void execute(ExecContext& ctx, CfdItem& item) override;

  private:
    CfdApp& app_;
};

/** Explicit Euler update; drives the inner/outer loop joins. */
class TimeStepStage : public Stage<CfdItem>
{
  public:
    explicit TimeStepStage(CfdApp& app);
    TaskCost cost(const CfdItem& item) const override;
    void execute(ExecContext& ctx, CfdItem& item) override;

  private:
    CfdApp& app_;
};

/** The CFD application driver. */
class CfdApp : public AppDriver
{
  public:
    explicit CfdApp(CfdParams params = {});

    std::string name() const override { return "cfd"; }
    Pipeline& pipeline() override { return pipe_; }
    void reset() override;
    void seedFlow(Seeder& seeder, int flow) override;
    bool verify() override;

    /** Lineage fixes (block, outer, inner); its cost and successor
     *  depend on nothing else. */
    bool replayable() const override { return true; }

    const CfdParams& params() const { return params_; }

    /** Composite blocks per wave. */
    int blocks() const;

    /** FNV checksum of the density field. */
    std::uint64_t densityChecksum() const;

    /** The state every run starts from (kCfdVars planes). */
    const std::vector<float>& initialState() const
    {
        return initialVars_;
    }

  private:
    friend class StepFactorStage;
    friend class FluxStage;
    friend class TimeStepStage;

    /** Elements [first, second) of composite @p block: the range
     *  every kernel call covers, and the flux kernel's ring. */
    std::pair<int, int> composite(int block) const;

    /** The whole iteration over a state vector, sequentially, with
     *  the kernels the pipeline stages call. */
    void refRun(std::vector<float>& vars) const;

    CfdParams params_;
    Pipeline pipe_;

    /** 5 conserved variables per element (SoA: v * n + e). */
    std::vector<float> vars_;
    std::vector<float> initialVars_;
    std::vector<float> stepFactor_;
    std::vector<float> flux_;

    std::uint64_t refChecksum_ = 0;
    bool refBuilt_ = false;
};

} // namespace vp::cfd

#endif // VP_APPS_CFD_CFD_APP_HH
