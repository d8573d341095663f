/**
 * @file
 * Streaming video-analytics application (ROADMAP: PulseOBS-shaped):
 * frame decode -> face detect -> ROI track -> per-face signal
 * extraction -> temporal filter.
 *
 * Unlike the six drain-to-empty batch apps, vidstream is built for
 * the serving layer: frames of each camera arrive on a frame clock
 * (one open-loop tenant per camera via VsFrameWorkload) and the
 * success metric is sustained FPS + per-frame deadline hit-rate, not
 * drain time. Face detection has data-dependent fan-out — a seeded
 * per-frame face count that drifts over time (faces enter and leave
 * the scene on a bounded random walk), so the offered per-frame work
 * is genuinely non-stationary, which is what the adaptive controller
 * and the deadline accounting are exercised against.
 *
 * Every per-item computation is a pure function of (seed, camera,
 * frame, face): stages store results only into slots owned by their
 * item, and the temporal filter takes its window of past samples
 * from the pure helpers (through a memo of their values,
 * VsSignalCache) instead of reading state written by other frames'
 * items. Execution order across frames and faces therefore cannot
 * change any value, so all execution models and shard plans agree
 * bit-for-bit.
 */

#ifndef VP_APPS_VIDSTREAM_VIDSTREAM_APP_HH
#define VP_APPS_VIDSTREAM_VIDSTREAM_APP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/versapipe.hh"
#include "serve/serving_engine.hh"

namespace vp::vidstream {

/** Workload parameters. */
struct VsParams
{
    int cameras = 4;
    int frames = 48;       //!< frames per camera in batch mode
    int width = 640;       //!< decoded frame width (cost model)
    int height = 360;      //!< decoded frame height
    int maxFaces = 6;      //!< random-walk ceiling on faces in scene
    int driftPeriod = 8;   //!< frames between face-count walk steps
    int roi = 24;          //!< square per-face region of interest
    int filterWindow = 8;  //!< temporal-filter taps (frames)
    std::uint64_t seed = 20260808;

    static VsParams small();
};

/** Data item (16 B like the paper's Table 2 apps). */
struct VsItem
{
    std::int32_t cam;
    std::int32_t frame;
    std::int32_t face;
    /** Packed ROI center (x << 16 | y), stamped by VsTrack. */
    std::int32_t tag;
};
static_assert(sizeof(VsItem) == 16, "16-byte items");

class VidstreamApp;

/** Frame decode: produce the frame's luma plane (one item/frame). */
class VsDecode : public Stage<VsItem>
{
  public:
    explicit VsDecode(VidstreamApp& app);
    TaskCost cost(const VsItem& item) const override;
    void execute(ExecContext& ctx, VsItem& item) override;

  private:
    VidstreamApp& app_;
};

/** Face detection: data-dependent fan-out, one item per face. */
class VsDetect : public Stage<VsItem>
{
  public:
    explicit VsDetect(VidstreamApp& app);
    TaskCost cost(const VsItem& item) const override;
    void execute(ExecContext& ctx, VsItem& item) override;

  private:
    VidstreamApp& app_;
};

/** ROI tracking: locate one face's region in this frame. */
class VsTrack : public Stage<VsItem>
{
  public:
    explicit VsTrack(VidstreamApp& app);
    TaskCost cost(const VsItem& item) const override;
    void execute(ExecContext& ctx, VsItem& item) override;

  private:
    VidstreamApp& app_;
};

/** Per-face signal extraction (mean ROI luma sample). */
class VsExtract : public Stage<VsItem>
{
  public:
    explicit VsExtract(VidstreamApp& app);
    TaskCost cost(const VsItem& item) const override;
    void execute(ExecContext& ctx, VsItem& item) override;

  private:
    VidstreamApp& app_;
};

/** Temporal filter over the face's recent sample window. */
class VsFilter : public Stage<VsItem>
{
  public:
    explicit VsFilter(VidstreamApp& app);
    TaskCost cost(const VsItem& item) const override;
    void execute(ExecContext& ctx, VsItem& item) override;

  private:
    VidstreamApp& app_;
};

/**
 * The stages' memo of the pure signal model. Every value comes from
 * the helper behind the pure function of the same name, so it is the
 * same double; the memo only decides what gets recomputed. Luma and
 * samples sit in direct-mapped slots tagged with the exact (cam,
 * frame) and (cam, frame, face), twice the filter window of frames
 * per camera, so their size comes from VsParams and not from the
 * length of the stream. The face-count walk resumes from the
 * camera's last window (and restarts when asked for an earlier one).
 * Frames count from 0. Each driver has its own, so it needs no lock.
 */
class VsSignalCache
{
  public:
    explicit VsSignalCache(const VidstreamApp& app) : app_(app) {}

    /** Size the slots for the app's params and forget every value. */
    void clear();

    /** @name The pure functions of VidstreamApp, memoized @{ */
    int faceCount(int cam, int frame);
    double lumaOf(int cam, int frame);
    double sampleOf(int cam, int frame, int face);
    double filteredOf(int cam, int frame, int face);
    /** @} */

  private:
    /** One slot: the frame it holds (-1: none) and its value. */
    struct Entry
    {
        int frame = -1;
        double value = 0.0;
    };

    /** Slot of (cam, frame) in luma_. */
    std::size_t slot(int cam, int frame) const;

    const VidstreamApp& app_;
    /** Frames kept per camera. */
    int depth_ = 0;
    std::vector<Entry> luma_;
    /** Per face of each luma_ slot. */
    std::vector<Entry> samples_;
    /** Per camera: the last window the walk reached, and its count. */
    std::vector<std::pair<int, int>> walk_;
};

/** The streaming video-analytics application driver. */
class VidstreamApp : public AppDriver
{
  public:
    explicit VidstreamApp(VsParams params = {});

    std::string name() const override { return "vidstream"; }
    Pipeline& pipeline() override { return pipe_; }
    void reset() override;
    /** A flow is one camera's frame stream. */
    int flowCount() const override { return params_.cameras; }
    /** Batch mode: seed every frame of camera @p flow at once. */
    void seedFlow(Seeder& seeder, int flow) override;
    double inputBytes() const override;
    bool verify() override;

    const VsParams& params() const { return params_; }

    /**
     * Serving mode: seed the next frame of camera @p cam on its
     * frame clock (one VsDecode item). The per-camera frame counter
     * advances past params().frames — the face-count walk and every
     * signal are pure functions of the frame number, so an unbounded
     * stream needs no preallocated state. reset() rewinds the
     * counters so serving reruns are bit-identical.
     */
    void seedFrame(Seeder& seeder, int cam);

    /** Frames fully filtered (every face) in the last run. */
    std::uint64_t framesFiltered() const { return framesFiltered_; }

    /** @name Pure per-frame signal model (shared with reference) @{ */

    /** Faces in camera @p cam's scene at @p frame: a seeded random
     *  walk in [0, maxFaces] stepping every driftPeriod frames. */
    int faceCount(int cam, int frame) const;

    /** Mean luma of the decoded frame (pure; loops over a sample
     *  grid of hashed pixel values). */
    double lumaOf(int cam, int frame) const;

    /** ROI center of @p face in @p frame (seeded anchor + drift). */
    std::pair<int, int> roiOf(int cam, int frame, int face) const;

    /** Raw extracted signal sample of one (cam, frame, face). */
    double sampleOf(int cam, int frame, int face) const;

    /** Temporally filtered signal: weighted window over the face's
     *  own recent samples, recomputed purely. */
    double filteredOf(int cam, int frame, int face) const;

    /** @} */

  private:
    friend class VsDecode;
    friend class VsDetect;
    friend class VsTrack;
    friend class VsExtract;
    friend class VsFilter;
    friend class VsSignalCache;

    /** @name The signal formulas, one copy each @{ */

    /** Faces at window 0 of camera @p cam's walk. */
    int firstFaces(int cam) const;

    /** The walk's count at window @p to, from count @p n at window
     *  @p from (from <= to). */
    int walkFaces(int cam, int from, int n, int to) const;

    /** Raw sample of (cam, frame, face) given the frame's luma. */
    double sampleWith(int cam, int frame, int face, double luma) const;

    /** Filter of @p frame's window over @p sample(frame - k). */
    template <typename Sample>
    double filterOver(int frame, Sample sample) const;

    /** @} */

    VsParams params_;
    Pipeline pipe_;
    /** The stages' memo of the signals. */
    VsSignalCache signals_{*this};

    /** Slot index of (cam, frame) into the batch-mode tables. */
    std::size_t slot(int cam, int frame) const;

    /** Decoded mean luma per (cam, frame % frames). */
    std::vector<double> luma_;
    /** Detected face count per (cam, frame % frames). */
    std::vector<int> faces_;
    /** Extracted samples, slot-per-(cam, frame % frames, face). */
    std::vector<double> samples_;
    /** Filter outputs, same slotting as samples_. */
    std::vector<double> filtered_;
    /** Faces still unfiltered per (cam, frame % frames) (join). */
    std::vector<int> faceRemaining_;
    std::uint64_t framesFiltered_ = 0;

    /** Serving frame clock: next frame per camera. */
    std::vector<int> nextFrame_;

    /** Reference outputs of the sequential CPU pipeline. */
    std::vector<double> refFiltered_;
    std::vector<int> refFaces_;
    bool refBuilt_ = false;

    void buildReference();
};

/**
 * Frame-clock serving workload: one tenant per camera, each admitted
 * request is one frame of that camera's stream (request -> camera =
 * tenant index, frame = the camera's clock position). Pair it with
 * per-tenant deadlineCycles equal to the frame budget to measure
 * per-frame deadline hit-rate.
 */
class VsFrameWorkload : public ServingWorkload
{
  public:
    explicit VsFrameWorkload(VidstreamApp& app)
        : app_(app)
    {
    }

    AppDriver& driver() override { return app_; }

    void
    seedRequest(Seeder& seeder, const Request& req) override
    {
        app_.seedFrame(seeder, req.tenant % app_.params().cameras);
    }

  private:
    VidstreamApp& app_;
};

} // namespace vp::vidstream

#endif // VP_APPS_VIDSTREAM_VIDSTREAM_APP_HH
