/**
 * @file
 * LDPC decoder application (paper Fig. 17): a 4-stage loop pipeline —
 * Initialize -> C2V -> V2C -> ProbVar — running min-sum decoding of a
 * regular (dv=3, dc=6) LDPC code over many frames. Frames are
 * independent, giving abundant task parallelism between stages.
 */

#ifndef VP_APPS_LDPC_LDPC_APP_HH
#define VP_APPS_LDPC_LDPC_APP_HH

#include <cstdint>
#include <vector>

#include "core/versapipe.hh"

namespace vp::ldpc {

/** Workload parameters. */
struct LdpcParams
{
    int frames = 100;   //!< paper: 100 frames
    int n = 1024;       //!< codeword bits
    int varDeg = 3;     //!< edges per variable node
    int checkDeg = 6;   //!< edges per check node
    /**
     * Decoding iterations per frame. The paper runs 100; the default
     * here is scaled down to keep simulations fast (model ratios are
     * iteration-invariant, see EXPERIMENTS.md).
     */
    int iterations = 8;
    double flipProb = 0.03; //!< BSC crossover probability
    std::uint64_t seed = 20170505;

    static LdpcParams small();
};

/** Data item (Table 2: 12 B). */
struct LdpcItem
{
    std::int32_t frame;
    std::int32_t iter;
    std::int32_t pass;
};
static_assert(sizeof(LdpcItem) == 12, "paper reports 12-byte items");

/**
 * Normalized min-sum check-node update over edges grouped by check,
 * checkDeg consecutive edges per check: each edge's c2v message is
 * 0.8 * (product of the other edges' v2c signs) * (minimum of their
 * magnitudes), with 1e30 standing for the minimum of no edges.
 * Two-minimum form: one pass per check finds the smallest and
 * second-smallest magnitude and the sign product, so a check costs
 * O(checkDeg).
 */
void minSumC2v(const std::vector<float>& v2c, std::vector<float>& c2v,
               int checkDeg);

class LdpcApp;

/** Channel LLRs and message initialization for one frame. */
class InitStage : public Stage<LdpcItem>
{
  public:
    explicit InitStage(LdpcApp& app);
    TaskCost cost(const LdpcItem& item) const override;
    void execute(ExecContext& ctx, LdpcItem& item) override;

  private:
    LdpcApp& app_;
};

/** Check-to-variable min-sum update for one frame. */
class C2vStage : public Stage<LdpcItem>
{
  public:
    explicit C2vStage(LdpcApp& app);
    TaskCost cost(const LdpcItem& item) const override;
    void execute(ExecContext& ctx, LdpcItem& item) override;

  private:
    LdpcApp& app_;
};

/** Variable-to-check update for one frame. */
class V2cStage : public Stage<LdpcItem>
{
  public:
    explicit V2cStage(LdpcApp& app);
    TaskCost cost(const LdpcItem& item) const override;
    void execute(ExecContext& ctx, LdpcItem& item) override;

  private:
    LdpcApp& app_;
};

/** Posterior computation and hard decision for one frame. */
class ProbVarStage : public Stage<LdpcItem>
{
  public:
    explicit ProbVarStage(LdpcApp& app);
    TaskCost cost(const LdpcItem& item) const override;
    void execute(ExecContext& ctx, LdpcItem& item) override;

  private:
    LdpcApp& app_;
};

/** The LDPC application driver. */
class LdpcApp : public AppDriver
{
  public:
    explicit LdpcApp(LdpcParams params = {});

    std::string name() const override { return "ldpc"; }
    Pipeline& pipeline() override { return pipe_; }
    void reset() override;
    void seedFlow(Seeder& seeder, int flow) override;
    bool verify() override;

    /** Lineage fixes (frame, iter, pass); its cost and successor
     *  depend on nothing else. */
    bool replayable() const override { return true; }

    const LdpcParams& params() const { return params_; }

    /** Frames whose decoded word matched the transmitted word. */
    int correctedFrames() const;

    /** Edges in the Tanner graph. */
    int edges() const { return params_.n * params_.varDeg; }

  private:
    friend class InitStage;
    friend class C2vStage;
    friend class V2cStage;
    friend class ProbVarStage;

    /** Decode one frame sequentially (reference). */
    std::vector<std::uint8_t>
    refDecode(const std::vector<float>& llr) const;

    void doV2c(const std::vector<float>& llr,
               const std::vector<float>& c2v,
               std::vector<float>& v2c) const;
    std::vector<std::uint8_t>
    decide(const std::vector<float>& llr,
           const std::vector<float>& c2v) const;

    LdpcParams params_;
    Pipeline pipe_;

    /** Edge -> variable and edge -> check (grouped by check). */
    std::vector<std::int32_t> edgeVar_;
    /** Variable -> its varDeg edge indices. */
    std::vector<std::int32_t> varEdges_;

    /** Per-frame channel LLRs and messages. */
    std::vector<std::vector<float>> llr_;
    std::vector<std::vector<float>> v2c_;
    std::vector<std::vector<float>> c2v_;
    std::vector<std::vector<std::uint8_t>> decoded_;
    std::vector<std::vector<std::uint8_t>> sent_;

    std::vector<std::vector<std::uint8_t>> refDecoded_;
    bool refBuilt_ = false;
};

} // namespace vp::ldpc

#endif // VP_APPS_LDPC_LDPC_APP_HH
