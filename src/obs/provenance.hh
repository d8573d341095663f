/**
 * @file
 * Item provenance: per-item lineage, latency decomposition and
 * critical-path attribution.
 *
 * The tracker assigns every sampled seed item a compact id (1-based;
 * 0 means "untracked") and follows it through queue waits, batch
 * service, retries, cross-device transfers and dynamic-parallelism
 * spawns (a stage output inherits lineage from the popped item that
 * produced it). Recording is strictly passive: every hook takes an
 * explicit simulated timestamp and touches only host-side memory, so
 * an instrumented run schedules exactly the same simulation events
 * as an uninstrumented one.
 *
 * Each item's lifetime partitions into *hops* — Wait (in a stage
 * queue), Service (popped into a batch until its outputs commit) and
 * Transfer (riding the interconnect, including any failover
 * redelivery delay) — and the decomposition invariant
 *
 *     wait + service + transfer == done - birth
 *
 * holds exactly: when an item reaches a terminal state the bucket of
 * its final hop is assigned as the remainder of the end-to-end time
 * minus the other two buckets, folding any floating-point
 * accumulation error into the hop it belongs to.
 *
 * The critical path walks lineage backwards from the last-finishing
 * completed item to its seed; a parent completes on the tick its
 * outputs commit, so consecutive chain links abut in time and the
 * path's hops tile the chain's span of the run.
 */

#ifndef VP_OBS_PROVENANCE_HH
#define VP_OBS_PROVENANCE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "sim/simulator.hh"

namespace vp {

/** Terminal accounting state of a tracked item. */
enum class ItemFate : std::uint8_t
{
    /** Still in flight (or the run ended without resolving it). */
    Open,
    /** Executed by its stage; outputs (if any) committed. */
    Completed,
    /** Abandoned: retry budget exhausted, non-retryable abort, or a
     *  failed interconnect link. */
    DeadLettered,
    /** Destroyed by an injected push-drop fault. */
    Dropped,
};

/** Human-readable name of @p f. */
const char* itemFateName(ItemFate f);

/** What an item was doing during one hop of its lifetime. */
enum class HopKind : std::uint8_t
{
    /** Sitting in a stage input queue. */
    Wait,
    /** Popped into a batch, until the batch committed (includes any
     *  retry backoff: a retried item stays "in service" from its
     *  faulted pop until redelivery re-queues it). */
    Service,
    /** Crossing the interconnect (submit to delivery, including
     *  failover redelivery of in-flight transfers). */
    Transfer,
};

/** One closed interval of a tracked item's lifetime. */
struct ProvHop
{
    HopKind kind = HopKind::Wait;
    /** Stage the hop belongs to (queue stage / serving stage /
     *  transfer destination stage). */
    std::int16_t stage = -1;
    /** Device the hop ran on (destination device for transfers). */
    std::int16_t device = -1;
    /** Serving SM (Service hops only). */
    std::int16_t sm = -1;
    /** Trace track of the serving SM (Service hops; binds Perfetto
     *  flow events to the StageBatch slice). */
    std::int32_t track = -1;
    /** Transfer endpoints (Transfer hops only). */
    std::int16_t fromDevice = -1;
    std::int16_t toDevice = -1;
    Tick t0 = 0.0;
    Tick t1 = 0.0;
};

/** Full provenance of one tracked item. */
struct ItemRecord
{
    /** Item id of the popped item whose batch produced this one;
     *  0 for seed items. */
    std::uint64_t parent = 0;
    /** First observation (enqueue or transfer submit). */
    Tick birth = 0.0;
    /** Terminal observation; 0 while Open. */
    Tick done = 0.0;
    ItemFate fate = ItemFate::Open;
    /** Decomposition buckets; sum == done - birth exactly once the
     *  item is terminal. */
    double waitCycles = 0.0;
    double serviceCycles = 0.0;
    double transferCycles = 0.0;
    std::vector<ProvHop> hops;

    /** @name Live tracking state (internal) @{ */
    enum class State : std::uint8_t
    {
        None,
        Queued,
        InService,
        InTransfer,
    };
    State state = State::None;
    Tick since = 0.0;
    std::int16_t stage = -1;
    std::int16_t device = -1;
    std::int16_t sm = -1;
    std::int32_t track = -1;
    std::int16_t fromDevice = -1;
    std::int16_t toDevice = -1;
    /** @} */

    /** End-to-end latency (valid once terminal). */
    double e2e() const { return done - birth; }
};

/** One labelled interval of the critical path. */
struct PathSegment
{
    /** "wait:<stage>@d<dev>", "service:<stage>@d<dev>" or
     *  "transfer:d<src>->d<dst>". */
    std::string label;
    HopKind kind = HopKind::Wait;
    Tick t0 = 0.0;
    Tick t1 = 0.0;
    double cycles = 0.0;
};

/** Aggregate wait/service decomposition of one stage. */
struct StageDecomposition
{
    int stage = -1;
    std::string name;
    std::uint64_t waits = 0;
    std::uint64_t services = 0;
    double waitCycles = 0.0;
    double serviceCycles = 0.0;
};

/**
 * Passive per-item provenance recorder. One instance lives inside an
 * ObsData for the duration of a run; the queueing layer stamps and
 * reports enqueues, the runtime reports pops/commits/terminals, and
 * the sharded engine reports transfers. All methods are O(1) per
 * observation (amortized) and never touch the simulator.
 *
 * Every record also knows the *root* (seed ancestor) of its lineage,
 * and the tracker counts how many items of each lineage are still
 * Open. The tick the count hits zero the lineage is "closed" and
 * appended to a drain list — the serving layer maps closed roots
 * back to requests to stamp end-to-end latency without ever walking
 * the record table.
 */
class ProvenanceTracker
{
  public:
    /** Track every @p sampleEvery -th seed item (1 = all). Children
     *  inherit tracking from their parent, so sampled lineages stay
     *  complete end-to-end. */
    explicit ProvenanceTracker(std::uint64_t sampleEvery = 1);

    /** Id for the next seed item; 0 when sampled out. */
    std::uint64_t mintSeed();

    /**
     * While on, mintSeed tracks every seed regardless of the
     * sampling stride. The serving layer flips this around request
     * seeding: request roots must always be tracked (lineage closure
     * is how completion is detected) while pre-seeded app items keep
     * honoring the caller's stride. Forced seeds still advance
     * seedsSeen(), so the stride phase stays a pure function of the
     * seed sequence.
     */
    void setAlwaysTrack(bool on) { alwaysTrack_ = on; }

    /** Id for an output of the batch that popped @p parent; 0 when
     *  the parent itself is untracked. */
    std::uint64_t mintChild(std::uint64_t parent);

    /** Stage names for labels; first binding wins. */
    void bindStageNames(const std::vector<std::string>& names);

    /** @name Recording hooks (all take an explicit sim timestamp) @{ */
    void noteEnqueue(std::uint64_t id, int stage, int device, Tick now);
    void notePop(std::uint64_t id, int sm, int track, Tick now);
    void noteForward(std::uint64_t id, int stage, int fromDevice,
                     int toDevice, Tick now);
    void noteComplete(std::uint64_t id, Tick now);
    void noteDeadLetter(std::uint64_t id, Tick now);
    void noteDropped(std::uint64_t id, Tick now);
    /** @} */

    /**
     * Fold per-item latencies into @p m: "prov/e2e_cycles" over
     * completed items plus per-stage "prov/wait/<stage>" and
     * "prov/service/<stage>" hop histograms. Idempotent.
     */
    void finalize(MetricsRegistry& m);

    /** @name Queries @{ */

    /** Seed items offered to mintSeed (tracked or not). */
    std::uint64_t seedsSeen() const { return seedsSeen_; }
    /** Seed items actually tracked. */
    std::uint64_t seedsTracked() const { return seedsTracked_; }
    std::uint64_t sampleEvery() const { return sampleEvery_; }

    const std::vector<ItemRecord>& records() const { return records_; }
    /** Record of @p id, or null for 0 / out of range. */
    const ItemRecord* record(std::uint64_t id) const;

    std::uint64_t countByFate(ItemFate f) const;

    /** Seed (root) ancestor id of @p id's lineage; 0 for 0 / out of
     *  range. A seed is its own root. */
    std::uint64_t rootOf(std::uint64_t id) const;

    /** Tracked items of @p root's lineage still Open. */
    std::uint64_t openOfRoot(std::uint64_t root) const;

    /** One lineage whose items all reached terminal fates. */
    struct ClosedRoot
    {
        std::uint64_t root = 0;
        /** Time the last open item of the lineage went terminal. */
        Tick closedAt = 0.0;
    };

    /**
     * Lineages that closed since the previous drain, in close order
     * (terminal hooks run at simulated event times, so the order is
     * deterministic). Moves the list out.
     */
    std::vector<ClosedRoot> drainClosedRoots();

    /** Largest |wait+service+transfer - e2e| over terminal items
     *  (the decomposition invariant; must be exactly 0). */
    double maxInvariantError() const;

    /** Total cycles tracked items spent on the interconnect. */
    double transferCyclesTotal() const;

    /** Per-stage aggregate wait/service decomposition. */
    std::vector<StageDecomposition> stageDecomposition() const;

    /**
     * Hop-by-hop critical path: the lineage chain of the
     * last-finishing completed item, seed first. Empty when nothing
     * completed.
     */
    std::vector<PathSegment> criticalPath() const;

    /** Critical-path time aggregated by segment label, largest
     *  first, capped at @p topN (0 = all). */
    std::vector<std::pair<std::string, double>>
    rankedCriticalSegments(std::size_t topN = 0) const;

    std::string stageName(int stage) const;

    /** @} */

  private:
    ItemRecord* rec(std::uint64_t id);
    /** Close the hop open since r.since and charge its bucket. */
    void closeHop(ItemRecord& r, Tick now);
    void terminal(std::uint64_t id, Tick now, ItemFate fate);

    std::uint64_t sampleEvery_;
    bool alwaysTrack_ = false;
    std::uint64_t seedsSeen_ = 0;
    std::uint64_t seedsTracked_ = 0;
    std::vector<ItemRecord> records_;
    /** Root id per record, parallel to records_. */
    std::vector<std::uint64_t> rootOf_;
    /** Open items per lineage, keyed by root id - 1 (slots of
     *  non-root ids stay 0). */
    std::vector<std::uint32_t> openByRoot_;
    std::vector<ClosedRoot> closedRoots_;
    std::vector<std::string> stageNames_;
    bool finalized_ = false;
};

} // namespace vp

#endif // VP_OBS_PROVENANCE_HH
