/**
 * @file
 * Run tracer: time-resolved record of what the simulated machine did.
 *
 * The tracer is a passive observer: hooks in the device, SMs, runners
 * and work queues record spans, instants and counter samples in
 * *simulated* time onto a preallocated slab ring buffer. Recording
 * never schedules simulation events, so a traced run's event sequence
 * — and therefore its cycle count — is bit-identical to an untraced
 * one; when tracing is disabled the hooks cost one predictable null
 * check.
 *
 * Traces export to the Chrome/Perfetto `trace_event` JSON format
 * (exportTraceJson), so any run can be opened as a timeline in
 * chrome://tracing or https://ui.perfetto.dev. One simulated cycle is
 * exported as one microsecond.
 */

#ifndef VP_OBS_TRACE_HH
#define VP_OBS_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace vp {

class ProvenanceTracker;

/** What a trace event describes (drives export naming/grouping). */
enum class TraceKind : std::uint8_t
{
    /** Whole-run span on the host track. */
    RunSpan,
    /** Host-side kernel launch request (instant; a = kernel name
     *  id, b = grid blocks). */
    KernelLaunch,
    /** Kernel executing on its stream (B/E pair; track = stream,
     *  a = kernel name id). */
    KernelSpan,
    /** One block-batch of a stage from fetch to commit (complete
     *  span; track = SM, a = stage, b = items). */
    StageBatch,
    /** One processor-sharing execution on an SM (complete span;
     *  track = SM, a = kernel id, b = warps). */
    ExecSpan,
    /** Resident blocks on an SM (counter; track = SM). */
    ResidentBlocks,
    /** Buffered items of a stage queue (counter; track = stage). */
    QueueDepth,
    /** One KBK flow from seed to drain (B/E pair; track = flow). */
    FlowSpan,
    /** Injected transient task faults (instant; a = stage, b = n). */
    TaskFault,
    /** Items scheduled for retry (instant; a = stage, b = n). */
    Retry,
    /** Redelivery of retried items (instant; a = stage, b = n). */
    Redeliver,
    /** Items dead-lettered (instant; a = stage, b = n). */
    DeadLetter,
    /** Commit waiting on a full bounded queue (instant; a = stage). */
    Backpressure,
    /** Injected kernel-launch delay (instant; a = name id). */
    LaunchDelay,
    /** SM killed by fault injection (instant; track = SM). */
    SmFail,
    /** SM throughput degraded (instant; track = SM, b = pct). */
    SmDegrade,
    /** Online-tuner refill launch (instant; a = stage, b = depth). */
    Refill,
    /** Block retreated (block-mapping budget; track = SM). */
    Retreat,
    /** Dynamic-parallelism sub-kernel spawn (a = stage, b = items). */
    DpSpawn,
    /** Engine watchdog checkpoint (instant; a = stalled checks). */
    WatchdogCheck,
    /** Cross-device interconnect transfer (complete span; track =
     *  destination device, a = source device, b = bytes). */
    Transfer,
    /** Adaptive-controller epoch (instant; a = moves so far). */
    AdaptiveEpoch,
    /** Adaptive block migration (instant; a = donor stage, b =
     *  receiver stage). */
    AdaptiveMove,
    /** Scripted whole-device kill (instant; a = device). */
    DeviceKill,
    /** Interconnect path failed (instant; a = src, b = dst). */
    LinkFail,
    /** Interconnect path degraded (instant; a = src, b = dst). */
    LinkDegrade,
    /** Pinned stage re-homed after a device death (instant; a =
     *  stage, b = new home device). */
    StageRehome,
    /** In-flight transfer redelivered because its destination died
     *  (instant; a = stage, b = new home device). */
    TransferRedeliver,
};

/** Human-readable name of @p k. */
const char* traceKindName(TraceKind k);

/** Event phase, mirroring trace_event `ph` values. */
enum class TracePhase : std::uint8_t
{
    Instant,  //!< ph "i"
    Begin,    //!< ph "B"
    End,      //!< ph "E"
    Complete, //!< ph "X" (ts + dur)
    Counter,  //!< ph "C" (value in val)
};

/** One record on the trace ring. POD; 32 bytes. */
struct TraceEvent
{
    /** Simulated time of the event (span start for Complete). */
    Tick ts = 0.0;
    /** Duration for Complete events; sampled value for Counter. */
    double val = 0.0;
    TraceKind kind = TraceKind::RunSpan;
    TracePhase phase = TracePhase::Instant;
    /** Track within the kind's group: SM / stream / stage / flow. */
    std::int16_t track = 0;
    /** Kind-specific arguments (stage index, item count, name id). */
    std::int32_t a = 0;
    std::int32_t b = 0;

    bool
    operator==(const TraceEvent& o) const
    {
        return ts == o.ts && val == o.val && kind == o.kind
            && phase == o.phase && track == o.track && a == o.a
            && b == o.b;
    }
};

/**
 * Slab ring buffer of trace events for one run.
 *
 * Capacity is fixed at construction (one allocation); when the ring
 * fills, the oldest events are overwritten and counted as dropped —
 * recent history, the part diagnostics need, is always retained.
 */
class Tracer
{
  public:
    /**
     * @param sim clock source for hooks that record "now"
     * @param capacity ring capacity in events; 0 disables recording
     */
    Tracer(const Simulator* sim, std::size_t capacity);

    /** True when this tracer records (capacity > 0). */
    bool enabled() const { return !ring_.empty(); }

    /** Current simulated time (for hooks without a timestamp). */
    Tick now() const { return sim_->now(); }

    /** Record an instant event at time @p ts. */
    void
    instant(TraceKind k, std::int16_t track, Tick ts,
            std::int32_t a = 0, std::int32_t b = 0)
    {
        record({ts, 0.0, k, TracePhase::Instant, track, a, b});
    }

    /** Record a complete span [@p ts, @p ts + @p dur]. */
    void
    span(TraceKind k, std::int16_t track, Tick ts, Tick dur,
         std::int32_t a = 0, std::int32_t b = 0)
    {
        record({ts, dur, k, TracePhase::Complete, track, a, b});
    }

    /** Open a Begin/End span on @p track. */
    void
    begin(TraceKind k, std::int16_t track, Tick ts,
          std::int32_t a = 0)
    {
        record({ts, 0.0, k, TracePhase::Begin, track, a, 0});
    }

    /** Close the innermost open span of @p k on @p track. */
    void
    end(TraceKind k, std::int16_t track, Tick ts, std::int32_t a = 0)
    {
        record({ts, 0.0, k, TracePhase::End, track, a, 0});
    }

    /** Record a counter sample (@p a optionally names the series). */
    void
    counter(TraceKind k, std::int16_t track, Tick ts, double value,
            std::int32_t a = 0)
    {
        record({ts, value, k, TracePhase::Counter, track, a, 0});
    }

    /**
     * Intern @p s into the trace string table; returns a stable id
     * usable as an event argument. Idempotent per string.
     */
    std::int32_t intern(const std::string& s);

    /** The interned string table, in id order. */
    const std::vector<std::string>& strings() const { return strings_; }

    /** Events recorded over the run (including overwritten ones). */
    std::uint64_t recorded() const { return recorded_; }

    /** Events lost to ring overwrite. */
    std::uint64_t dropped() const { return dropped_; }

    /** The retained events, oldest first (unrolls the ring). */
    std::vector<TraceEvent> snapshot() const;

    /**
     * Human-readable rendering of the last @p k retained events,
     * newest last — attached to Stalled/DrainTimeout diagnostics.
     */
    std::string tail(std::size_t k) const;

  private:
    void
    record(TraceEvent e)
    {
        if (ring_.empty())
            return;
        ring_[head_] = e;
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
        if (size_ < ring_.size())
            ++size_;
        else
            ++dropped_;
        ++recorded_;
    }

    const Simulator* sim_;
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<std::string> strings_;
};

/**
 * Export @p t as Chrome/Perfetto `trace_event` JSON.
 *
 * Events are sorted by timestamp, so every track is monotonic, and
 * Begin/End pairs are rebalanced against ring truncation: an End
 * whose Begin was overwritten is dropped, a Begin left open at the
 * end of the trace (e.g. a stalled run) is closed at the final
 * timestamp. `scripts/trace_lint.py` validates both properties.
 */
void exportTraceJson(std::ostream& os, const Tracer& t);

/**
 * Flow-aware export: additionally emits one Perfetto flow (legacy
 * s/f pair, id = the child item's provenance id) per parent→child
 * lineage edge of @p prov, binding the arrow from the parent's
 * serving batch slice to the child's. Items without a service hop on
 * either end (never popped, or served on an untracked SM) emit no
 * flow. @p prov may be null, which degrades to the plain export.
 */
void exportTraceJson(std::ostream& os, const Tracer& t,
                     const ProvenanceTracker* prov);

} // namespace vp

#endif // VP_OBS_TRACE_HH
