#include "obs/report.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>

#include "core/run_result.hh"
#include "obs/obs.hh"

// NOTE: vp_obs does not link against vp_core; this translation unit
// may use only header-inline content from core/gpu/queueing headers
// (plain struct fields, inline functions). Keep it that way.

namespace vp {

namespace {

std::string
esc(const std::string& s)
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

/** Number formatting that is always valid JSON (no inf/nan). */
std::string
num(double v)
{
    if (!(v == v))
        return "null";
    if (v > 1e308 || v < -1e308)
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

std::string
uint(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Latency-summary object of one histogram ({} when no samples). */
void
writeHistogram(std::ostream& os, const Histogram& h,
               const char* indent)
{
    if (h.empty()) {
        os << "{\"count\": 0}";
        return;
    }
    os << "{\n"
       << indent << "  \"count\": " << uint(h.count()) << ",\n"
       << indent << "  \"mean\": " << num(h.mean()) << ",\n"
       << indent << "  \"stddev\": " << num(h.stddev()) << ",\n"
       << indent << "  \"min\": " << num(h.min()) << ",\n"
       << indent << "  \"max\": " << num(h.max()) << ",\n"
       << indent << "  \"p50\": " << num(h.percentile(0.50)) << ",\n"
       << indent << "  \"p95\": " << num(h.percentile(0.95)) << ",\n"
       << indent << "  \"p99\": " << num(h.percentile(0.99)) << "\n"
       << indent << "}";
}

} // namespace

void
writeReportJson(std::ostream& os, const RunResult& r)
{
    const ObsData* obs = r.obs.get();

    os << "{\n";
    os << "  \"config\": \"" << esc(r.configName) << "\",\n";
    os << "  \"device\": \"" << esc(r.deviceName) << "\",\n";
    os << "  \"outcome\": \"" << runOutcomeName(r.outcome) << "\",\n";
    os << "  \"completed\": " << (r.completed ? "true" : "false")
       << ",\n";
    os << "  \"cycles\": " << num(r.cycles) << ",\n";
    os << "  \"ms\": " << num(r.ms) << ",\n";
    os << "  \"sm_utilization\": " << num(r.smUtilization) << ",\n";
    os << "  \"sim_events\": " << uint(r.simEvents) << ",\n";
    os << "  \"dispatched_events\": " << uint(r.dispatchedEvents)
       << ",\n";
    os << "  \"polls\": " << uint(r.polls) << ",\n";
    os << "  \"retreats\": " << uint(r.retreats) << ",\n";
    os << "  \"refills\": " << uint(r.refills) << ",\n";

    os << "  \"host\": {\"launches\": " << uint(r.host.launches)
       << ", \"memcpys\": " << uint(r.host.memcpys)
       << ", \"memcpy_bytes\": " << num(r.host.memcpyBytes)
       << ", \"busy_cycles\": " << num(r.host.busyCycles) << "},\n";

    os << "  \"device_stats\": {\"kernel_launches\": "
       << uint(r.device.kernelLaunches)
       << ", \"blocks_dispatched\": "
       << uint(r.device.blocksDispatched)
       << ", \"peak_resident_blocks\": " << r.device.peakResidentBlocks
       << ", \"sms_failed\": " << r.device.smsFailed
       << ", \"sms_degraded\": " << r.device.smsDegraded << "},\n";

    os << "  \"faults\": {\"task_faults\": " << uint(r.faults.taskFaults)
       << ", \"tasks_retried\": " << uint(r.faults.tasksRetried)
       << ", \"dead_lettered\": " << uint(r.faults.deadLettered)
       << ", \"dropped_pushes\": " << uint(r.faults.droppedPushes)
       << ", \"corrupted_pushes\": " << uint(r.faults.corruptedPushes)
       << ", \"backpressure_waits\": "
       << uint(r.faults.backpressureWaits)
       << ", \"watchdog_fired\": "
       << (r.faults.watchdogFired ? "true" : "false") << "},\n";

    if (r.serving) {
        const ServingRunStats& sv = *r.serving;
        os << "  \"serving\": {\n"
           << "    \"epochs\": " << uint(sv.epochs)
           << ", \"epoch_cycles\": " << num(sv.epochCycles)
           << ",\n    \"offered\": " << uint(sv.offered)
           << ", \"admitted\": " << uint(sv.admitted)
           << ", \"shed\": " << uint(sv.shed)
           << ", \"completed\": " << uint(sv.completed)
           << ", \"outstanding\": " << uint(sv.outstanding)
           << ",\n    \"throughput_per_mcycle\": "
           << num(sv.throughputPerMCycle) << ",\n";
        // Deadline keys appear only when a tenant configured one, so
        // no-deadline reports stay byte-identical to earlier builds.
        bool anyDeadline = false;
        for (const TenantServeStats& t : sv.tenants)
            anyDeadline = anyDeadline || t.deadlineCycles > 0.0;
        if (anyDeadline) {
            os << "    \"deadline_misses\": "
               << uint(sv.deadlineMisses)
               << ", \"deadline_hit_rate\": "
               << num(sv.deadlineHitRate) << ",\n";
        }
        os << "    \"tenants\": [\n";
        for (std::size_t i = 0; i < sv.tenants.size(); ++i) {
            const TenantServeStats& t = sv.tenants[i];
            os << "      {\"name\": \"" << esc(t.name)
               << "\", \"offered\": " << uint(t.offered)
               << ", \"admitted\": " << uint(t.admitted)
               << ", \"shed\": " << uint(t.shed)
               << ", \"completed\": " << uint(t.completed)
               << ", \"outstanding\": " << uint(t.outstanding)
               << ",\n       \"p50_cycles\": " << num(t.p50Cycles)
               << ", \"p99_cycles\": " << num(t.p99Cycles)
               << ", \"mean_cycles\": " << num(t.meanCycles)
               << ", \"max_cycles\": " << num(t.maxCycles)
               << ",\n       \"slo_p50_cycles\": "
               << num(t.sloP50Cycles)
               << ", \"slo_p99_cycles\": " << num(t.sloP99Cycles)
               << ", \"slo_p50_ok\": " << (t.sloP50Ok ? "true" : "false")
               << ", \"slo_p99_ok\": " << (t.sloP99Ok ? "true" : "false")
               << ", \"deadline_misses\": " << uint(t.deadlineMisses);
            if (t.deadlineCycles > 0.0) {
                os << ",\n       \"deadline_cycles\": "
                   << num(t.deadlineCycles)
                   << ", \"deadline_hit_rate\": "
                   << num(t.deadlineHitRate);
            }
            os << "}" << (i + 1 < sv.tenants.size() ? "," : "")
               << "\n";
        }
        os << "    ],\n    \"epoch_log\": [\n";
        for (std::size_t i = 0; i < sv.epochLog.size(); ++i) {
            const ServeEpochStats& e = sv.epochLog[i];
            os << "      {\"at\": " << num(e.at)
               << ", \"arrivals\": " << uint(e.arrivals)
               << ", \"admitted\": " << uint(e.admitted)
               << ", \"shed\": " << uint(e.shed)
               << ", \"completed\": " << uint(e.completed)
               << ", \"queue_traffic\": " << uint(e.queueTraffic)
               << "}" << (i + 1 < sv.epochLog.size() ? "," : "")
               << "\n";
        }
        os << "    ]\n  },\n";
    }

    os << "  \"stages\": [\n";
    for (std::size_t i = 0; i < r.stages.size(); ++i) {
        const StageRunStats& s = r.stages[i];
        os << "    {\"name\": \"" << esc(s.name)
           << "\", \"items\": " << uint(s.items)
           << ", \"batches\": " << uint(s.batches)
           << ", \"warp_insts\": " << num(s.warpInsts)
           << ", \"exec_cycles\": " << num(s.execCycles)
           << ", \"retried\": " << uint(s.retried)
           << ", \"dead_lettered\": " << uint(s.deadLettered)
           << ",\n     \"queue\": {\"pushes\": " << uint(s.queue.pushes)
           << ", \"pops\": " << uint(s.queue.pops)
           << ", \"max_depth\": " << uint(s.queue.maxDepth)
           << ", \"op_cycles\": " << num(s.queue.opCycles)
           << ", \"contention_cycles\": "
           << num(s.queue.contentionCycles) << "}";
        if (obs && i < obs->stageBatchCycles.size()) {
            os << ",\n     \"batch_latency_cycles\": ";
            writeHistogram(os, obs->stageBatchCycles[i], "     ");
        }
        os << "}" << (i + 1 < r.stages.size() ? "," : "") << "\n";
    }
    os << "  ]";

    if (obs) {
        os << ",\n  \"trace\": {\"enabled\": "
           << (obs->tracer.enabled() ? "true" : "false")
           << ", \"recorded\": " << uint(obs->tracer.recorded())
           << ", \"dropped\": " << uint(obs->tracer.dropped());
        if (obs->tracer.dropped() > 0) {
            // The ring overwrites oldest-first, so a non-zero drop
            // count means the *early* history is gone. Say so loudly:
            // a truncated trace silently skews any analysis that
            // assumes it starts at cycle 0.
            os << ", \"warning\": \"trace ring overflowed: the "
               << uint(obs->tracer.dropped())
               << " oldest events were overwritten and the exported "
                  "trace is missing its earliest history; increase "
                  "ObsConfig::traceCapacity\"";
        }
        os << "},\n";

        if (obs->provenance) {
            const ProvenanceTracker& pv = *obs->provenance;
            os << "  \"provenance\": {\n"
               << "    \"seeds_seen\": " << uint(pv.seedsSeen())
               << ", \"seeds_tracked\": " << uint(pv.seedsTracked())
               << ", \"sample_every\": " << uint(pv.sampleEvery())
               << ",\n    \"items_tracked\": "
               << uint(pv.records().size())
               << ", \"completed\": "
               << uint(pv.countByFate(ItemFate::Completed))
               << ", \"dead_lettered\": "
               << uint(pv.countByFate(ItemFate::DeadLettered))
               << ", \"dropped\": "
               << uint(pv.countByFate(ItemFate::Dropped))
               << ", \"open\": "
               << uint(pv.countByFate(ItemFate::Open))
               << ",\n    \"transfer_cycles\": "
               << num(pv.transferCyclesTotal())
               << ", \"decomposition_error\": "
               << num(pv.maxInvariantError()) << ",\n";

            os << "    \"stage_decomposition\": [\n";
            auto decomp = pv.stageDecomposition();
            for (std::size_t i = 0; i < decomp.size(); ++i) {
                const StageDecomposition& d = decomp[i];
                os << "      {\"stage\": \"" << esc(d.name)
                   << "\", \"waits\": " << uint(d.waits)
                   << ", \"wait_cycles\": " << num(d.waitCycles)
                   << ", \"services\": " << uint(d.services)
                   << ", \"service_cycles\": " << num(d.serviceCycles)
                   << "}" << (i + 1 < decomp.size() ? "," : "")
                   << "\n";
            }
            os << "    ],\n";

            auto path = pv.criticalPath();
            double pathCycles = 0.0;
            for (const PathSegment& seg : path)
                pathCycles += seg.cycles;
            os << "    \"critical_path\": {\"cycles\": "
               << num(pathCycles) << ", \"segments\": [\n";
            for (std::size_t i = 0; i < path.size(); ++i) {
                const PathSegment& seg = path[i];
                os << "      {\"label\": \"" << esc(seg.label)
                   << "\", \"t0\": " << num(seg.t0)
                   << ", \"t1\": " << num(seg.t1)
                   << ", \"cycles\": " << num(seg.cycles) << "}"
                   << (i + 1 < path.size() ? "," : "") << "\n";
            }
            os << "    ], \"ranked\": [\n";
            auto ranked = pv.rankedCriticalSegments();
            for (std::size_t i = 0; i < ranked.size(); ++i) {
                os << "      {\"label\": \"" << esc(ranked[i].first)
                   << "\", \"cycles\": " << num(ranked[i].second)
                   << "}" << (i + 1 < ranked.size() ? "," : "")
                   << "\n";
            }
            os << "    ]}\n  },\n";
        }

        os << "  \"metrics\": {\n    \"counters\": {";
        bool first = true;
        for (const auto& [name, c] : obs->metrics.counters()) {
            os << (first ? "" : ", ") << "\"" << esc(name)
               << "\": " << uint(c.value());
            first = false;
        }
        os << "},\n    \"gauges\": {";
        first = true;
        for (const auto& [name, g] : obs->metrics.gauges()) {
            os << (first ? "" : ", ") << "\"" << esc(name)
               << "\": " << num(g.value());
            first = false;
        }
        os << "},\n    \"histograms\": {";
        first = true;
        for (const auto& [name, h] : obs->metrics.histograms()) {
            os << (first ? "" : ", ") << "\"" << esc(name) << "\": ";
            writeHistogram(os, h, "    ");
            first = false;
        }
        os << "}\n  },\n";

        os << "  \"series\": [\n";
        const auto& series = obs->sampler.series();
        for (std::size_t i = 0; i < series.size(); ++i) {
            const TimeSeries& ts = series[i];
            os << "    {\"name\": \"" << esc(ts.name) << "\", \"t\": [";
            for (std::size_t k = 0; k < ts.t.size(); ++k)
                os << (k ? ", " : "") << num(ts.t[k]);
            os << "], \"v\": [";
            for (std::size_t k = 0; k < ts.v.size(); ++k)
                os << (k ? ", " : "") << num(ts.v[k]);
            os << "]}" << (i + 1 < series.size() ? "," : "") << "\n";
        }
        os << "  ]";
    }

    if (!r.failureReason.empty())
        os << ",\n  \"failure_reason\": \"" << esc(r.failureReason)
           << "\"";
    os << "\n}\n";
}

void
writeTimeSeriesCsv(std::ostream& os, const ObsData& obs)
{
    const auto& series = obs.sampler.series();
    os << "t";
    for (const TimeSeries& s : series)
        os << "," << s.name;
    os << "\n";
    std::size_t rows = 0;
    for (const TimeSeries& s : series)
        rows = std::max(rows, s.t.size());
    for (std::size_t k = 0; k < rows; ++k) {
        // All series share the sampler clock; take t from the first
        // series long enough to cover row k.
        for (const TimeSeries& s : series)
            if (k < s.t.size()) {
                os << num(s.t[k]);
                break;
            }
        for (const TimeSeries& s : series) {
            os << ",";
            if (k < s.v.size())
                os << num(s.v[k]);
        }
        os << "\n";
    }
}

} // namespace vp
