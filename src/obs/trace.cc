#include "obs/trace.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>

#include "obs/provenance.hh"

namespace vp {

const char*
traceKindName(TraceKind k)
{
    switch (k) {
    case TraceKind::RunSpan: return "run";
    case TraceKind::KernelLaunch: return "kernel_launch";
    case TraceKind::KernelSpan: return "kernel";
    case TraceKind::StageBatch: return "stage_batch";
    case TraceKind::ExecSpan: return "exec";
    case TraceKind::ResidentBlocks: return "resident_blocks";
    case TraceKind::QueueDepth: return "queue_depth";
    case TraceKind::FlowSpan: return "flow";
    case TraceKind::TaskFault: return "task_fault";
    case TraceKind::Retry: return "retry";
    case TraceKind::Redeliver: return "redeliver";
    case TraceKind::DeadLetter: return "dead_letter";
    case TraceKind::Backpressure: return "backpressure";
    case TraceKind::LaunchDelay: return "launch_delay";
    case TraceKind::SmFail: return "sm_fail";
    case TraceKind::SmDegrade: return "sm_degrade";
    case TraceKind::Refill: return "refill";
    case TraceKind::Retreat: return "retreat";
    case TraceKind::DpSpawn: return "dp_spawn";
    case TraceKind::WatchdogCheck: return "watchdog_check";
    case TraceKind::Transfer: return "transfer";
    case TraceKind::AdaptiveEpoch: return "adaptive_epoch";
    case TraceKind::AdaptiveMove: return "adaptive_move";
    case TraceKind::DeviceKill: return "device_kill";
    case TraceKind::LinkFail: return "link_fail";
    case TraceKind::LinkDegrade: return "link_degrade";
    case TraceKind::StageRehome: return "stage_rehome";
    case TraceKind::TransferRedeliver: return "transfer_redeliver";
    }
    return "?";
}

Tracer::Tracer(const Simulator* sim, std::size_t capacity)
    : sim_(sim), ring_(capacity)
{
}

std::int32_t
Tracer::intern(const std::string& s)
{
    for (std::size_t i = 0; i < strings_.size(); ++i)
        if (strings_[i] == s)
            return static_cast<std::int32_t>(i);
    strings_.push_back(s);
    return static_cast<std::int32_t>(strings_.size() - 1);
}

std::vector<TraceEvent>
Tracer::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(size_);
    // Oldest retained event: head_ when the ring has wrapped,
    // index 0 otherwise.
    std::size_t start = size_ == ring_.size() ? head_ : 0;
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

std::string
Tracer::tail(std::size_t k) const
{
    std::vector<TraceEvent> evs = snapshot();
    std::size_t first = evs.size() > k ? evs.size() - k : 0;
    std::ostringstream os;
    for (std::size_t i = first; i < evs.size(); ++i) {
        const TraceEvent& e = evs[i];
        char line[160];
        std::snprintf(line, sizeof line,
                      "  [%12.1f] %-15s track=%-3d a=%d b=%d%s\n",
                      e.ts, traceKindName(e.kind), e.track, e.a, e.b,
                      e.phase == TracePhase::Begin    ? " (begin)"
                      : e.phase == TracePhase::End    ? " (end)"
                      : e.phase == TracePhase::Counter
                          ? " (counter)"
                          : "");
        os << line;
    }
    return os.str();
}

namespace {

/** Process (pid) grouping of the exported timeline. */
enum : int
{
    PidHost = 1,
    PidStreams = 2,
    PidSms = 3,
    PidQueues = 4,
    PidFlows = 5,
    PidFaults = 6,
    PidInterconnect = 7,
};

struct ExportMeta
{
    int pid;
    int tid;
};

/** Which timeline process/thread a recorded event renders on. */
ExportMeta
placeEvent(const TraceEvent& e)
{
    switch (e.kind) {
    case TraceKind::RunSpan:
    case TraceKind::KernelLaunch:
    case TraceKind::WatchdogCheck:
        return {PidHost, 0};
    case TraceKind::KernelSpan:
        return {PidStreams, e.track};
    case TraceKind::StageBatch:
    case TraceKind::ExecSpan:
    case TraceKind::ResidentBlocks:
        return {PidSms, e.track};
    case TraceKind::QueueDepth:
        return {PidQueues, e.track};
    case TraceKind::FlowSpan:
        return {PidFlows, e.track};
    case TraceKind::TaskFault:
    case TraceKind::Retry:
    case TraceKind::Redeliver:
    case TraceKind::DeadLetter:
    case TraceKind::Backpressure:
    case TraceKind::LaunchDelay:
    case TraceKind::Refill:
    case TraceKind::DpSpawn:
    case TraceKind::AdaptiveEpoch:
    case TraceKind::AdaptiveMove:
    case TraceKind::DeviceKill:
    case TraceKind::StageRehome:
        return {PidFaults, e.track};
    case TraceKind::SmFail:
    case TraceKind::SmDegrade:
    case TraceKind::Retreat:
        return {PidSms, e.track};
    case TraceKind::Transfer:
    case TraceKind::LinkFail:
    case TraceKind::LinkDegrade:
    case TraceKind::TransferRedeliver:
        return {PidInterconnect, e.track};
    }
    return {PidHost, 0};
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Display name of one exported event. */
std::string
eventName(const TraceEvent& e, const std::vector<std::string>& strings)
{
    auto named = [&strings](std::int32_t id,
                            const char* fallback) -> std::string {
        if (id >= 0 && static_cast<std::size_t>(id) < strings.size())
            return strings[static_cast<std::size_t>(id)];
        return fallback;
    };
    switch (e.kind) {
    case TraceKind::KernelLaunch:
    case TraceKind::KernelSpan:
    case TraceKind::LaunchDelay:
        return named(e.a, traceKindName(e.kind));
    case TraceKind::StageBatch:
        return named(e.a, "stage_batch");
    case TraceKind::QueueDepth:
        return named(e.a, "queue_depth");
    default:
        return traceKindName(e.kind);
    }
}

void
writeEvent(std::ostream& os, const TraceEvent& e,
           const std::vector<std::string>& strings, bool& first)
{
    ExportMeta m = placeEvent(e);
    const char* ph = "i";
    switch (e.phase) {
    case TracePhase::Instant: ph = "i"; break;
    case TracePhase::Begin: ph = "B"; break;
    case TracePhase::End: ph = "E"; break;
    case TracePhase::Complete: ph = "X"; break;
    case TracePhase::Counter: ph = "C"; break;
    }
    char buf[384];
    std::string name = jsonEscape(eventName(e, strings));
    int n = std::snprintf(
        buf, sizeof buf,
        "%s    {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%s\", "
        "\"ts\": %.3f, \"pid\": %d, \"tid\": %d",
        first ? "" : ",\n", name.c_str(), traceKindName(e.kind), ph,
        e.ts, m.pid, m.tid);
    os.write(buf, n);
    first = false;
    if (e.phase == TracePhase::Complete) {
        n = std::snprintf(buf, sizeof buf, ", \"dur\": %.3f",
                          std::max(e.val, 0.0));
        os.write(buf, n);
    }
    if (e.phase == TracePhase::Instant)
        os << ", \"s\": \"t\"";
    if (e.phase == TracePhase::Counter) {
        n = std::snprintf(buf, sizeof buf,
                          ", \"args\": {\"value\": %.3f}}", e.val);
        os.write(buf, n);
        return;
    }
    n = std::snprintf(buf, sizeof buf,
                      ", \"args\": {\"a\": %d, \"b\": %d}}", e.a, e.b);
    os.write(buf, n);
}

void
writeMeta(std::ostream& os, int pid, const char* processName,
          bool& first)
{
    char buf[256];
    int n = std::snprintf(
        buf, sizeof buf,
        "%s    {\"name\": \"process_name\", \"ph\": \"M\", "
        "\"pid\": %d, \"tid\": 0, "
        "\"args\": {\"name\": \"%s\"}}",
        first ? "" : ",\n", pid, processName);
    os.write(buf, n);
    first = false;
}

} // namespace

void
exportTraceJson(std::ostream& os, const Tracer& t)
{
    exportTraceJson(os, t, nullptr);
}

namespace {

/** First (or last) Service hop of @p r bound to a real SM track. */
const ProvHop*
serviceHop(const ItemRecord& r, bool last)
{
    const ProvHop* found = nullptr;
    for (const ProvHop& h : r.hops) {
        if (h.kind != HopKind::Service || h.track < 0)
            continue;
        found = &h;
        if (!last)
            break;
    }
    return found;
}

/** Legacy Perfetto flow event ("s" start / "f" finish). */
void
writeFlowEvent(std::ostream& os, const char* ph, std::uint64_t id,
               Tick ts, int tid, bool& first)
{
    char buf[256];
    int n = std::snprintf(
        buf, sizeof buf,
        "%s    {\"name\": \"item\", \"cat\": \"flow\", "
        "\"ph\": \"%s\", \"id\": %llu, \"ts\": %.3f, "
        "\"pid\": %d, \"tid\": %d%s}",
        first ? "" : ",\n", ph,
        static_cast<unsigned long long>(id), ts, PidSms, tid,
        ph[0] == 'f' ? ", \"bp\": \"e\"" : "");
    os.write(buf, n);
    first = false;
}

} // namespace

void
exportTraceJson(std::ostream& os, const Tracer& t,
                const ProvenanceTracker* prov)
{
    std::vector<TraceEvent> evs = t.snapshot();

    // Complete (X) spans are recorded when they *finish* but carry
    // their start time, so the raw ring is not globally ordered.
    // Sort by timestamp — stably, to keep same-tick ordering (and
    // therefore the exported file) deterministic.
    std::stable_sort(evs.begin(), evs.end(),
                     [](const TraceEvent& x, const TraceEvent& y) {
                         return x.ts < y.ts;
                     });

    // Rebalance Begin/End pairs against ring truncation: drop an End
    // whose Begin was overwritten; close Begins still open at the
    // final timestamp (a wedged run leaves spans open).
    Tick lastTs = evs.empty() ? 0.0 : evs.back().ts;
    std::map<std::pair<int, int>, int> depth;
    std::vector<TraceEvent> out;
    out.reserve(evs.size());
    for (const TraceEvent& e : evs) {
        if (e.phase == TracePhase::Begin) {
            ExportMeta m = placeEvent(e);
            ++depth[{m.pid, m.tid}];
        } else if (e.phase == TracePhase::End) {
            ExportMeta m = placeEvent(e);
            int& d = depth[{m.pid, m.tid}];
            if (d == 0)
                continue; // orphan End: Begin fell off the ring
            --d;
        }
        out.push_back(e);
    }
    std::vector<TraceEvent> closers;
    for (const TraceEvent& e : out)
        if (e.phase == TracePhase::Begin) {
            ExportMeta m = placeEvent(e);
            int& d = depth[{m.pid, m.tid}];
            if (d > 0) {
                --d;
                TraceEvent close = e;
                close.phase = TracePhase::End;
                close.ts = lastTs;
                closers.push_back(close);
            }
        }
    out.insert(out.end(), closers.begin(), closers.end());

    os << "{\n  \"displayTimeUnit\": \"ms\",\n"
       << "  \"traceEvents\": [\n";
    bool first = true;
    writeMeta(os, PidHost, "host", first);
    writeMeta(os, PidStreams, "streams", first);
    writeMeta(os, PidSms, "sms", first);
    writeMeta(os, PidQueues, "queues", first);
    writeMeta(os, PidFlows, "flows", first);
    writeMeta(os, PidFaults, "faults", first);
    writeMeta(os, PidInterconnect, "interconnect", first);
    for (const TraceEvent& e : out)
        writeEvent(os, e, t.strings(), first);

    // Lineage flows: one arrow per tracked parent→child edge, from
    // the batch slice that produced the child to the batch slice
    // that consumed it. Emitted at export time from the tracker's
    // records — the ring holds no flow events, so tracing cost is
    // unchanged when provenance is off.
    if (prov) {
        const std::vector<ItemRecord>& recs = prov->records();
        for (std::size_t i = 0; i < recs.size(); ++i) {
            const ItemRecord& child = recs[i];
            if (!child.parent)
                continue;
            const ItemRecord* parent = prov->record(child.parent);
            if (!parent)
                continue;
            const ProvHop* from = serviceHop(*parent, true);
            const ProvHop* to = serviceHop(child, false);
            if (!from || !to)
                continue;
            std::uint64_t id = static_cast<std::uint64_t>(i) + 1;
            writeFlowEvent(os, "s", id, from->t0, from->track, first);
            writeFlowEvent(os, "f", id, to->t0, to->track, first);
        }
    }
    os << "\n  ]\n}\n";
}

} // namespace vp
