/**
 * @file
 * Tests of the observability layer: log-bucketed histogram boundary
 * math, tracer determinism across identical runs, the zero-cost
 * guarantee when tracing is disabled (and the passive-recording
 * guarantee when it is enabled), sampler time-series length versus
 * run length, report/trace export content, and the trace tail
 * attached to structured failure diagnostics.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/obs.hh"
#include "obs/report.hh"
#include "toy_apps.hh"

using namespace vp;
using namespace vp::test;

namespace {

RunResult
runObserved(const ObsConfig& oc, int flows = 2, int perFlow = 64)
{
    LinearApp app(flows, perFlow);
    Engine engine(DeviceConfig::k20c());
    engine.setObservability(oc);
    RunResult r = engine.run(app, makeMegakernelConfig(app.pipeline()));
    EXPECT_TRUE(r.completed);
    return r;
}

// ------------------------- histogram ---------------------------- //

TEST(Histogram, BucketBoundaries)
{
    // Buckets: 0 = (-inf, 16]; i >= 1 = (16*2^(i-1), 16*2^i].
    Histogram h(16.0, 2.0);
    EXPECT_EQ(h.bucketIndex(-5.0), 0u);
    EXPECT_EQ(h.bucketIndex(0.0), 0u);
    EXPECT_EQ(h.bucketIndex(16.0), 0u);          // exactly lo
    EXPECT_EQ(h.bucketIndex(16.0000001), 1u);    // just above lo
    EXPECT_EQ(h.bucketIndex(32.0), 1u);          // exactly lo*g
    EXPECT_EQ(h.bucketIndex(32.0000001), 2u);    // just above lo*g
    EXPECT_EQ(h.bucketIndex(64.0), 2u);
    EXPECT_EQ(h.bucketIndex(1024.0), 6u);
    for (std::size_t i = 1; i < 40; ++i) {
        // Every bucket's bounds must bracket the values it indexes.
        double mid = 0.5 * (h.lowerBound(i) + h.upperBound(i));
        EXPECT_EQ(h.bucketIndex(mid), i) << "bucket " << i;
        EXPECT_EQ(h.bucketIndex(h.upperBound(i)), i) << "bucket " << i;
    }
}

TEST(Histogram, PercentilesAndMoments)
{
    Histogram h(1.0, 1.25);
    for (int i = 1; i <= 1000; ++i)
        h.add(static_cast<double>(i));
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), 500.5);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
    // Log buckets are coarse; percentiles land within one bucket
    // (25%) of the exact value and must be monotone.
    double p50 = h.percentile(0.50);
    double p95 = h.percentile(0.95);
    double p99 = h.percentile(0.99);
    EXPECT_NEAR(p50, 500.0, 500.0 * 0.25);
    EXPECT_NEAR(p95, 950.0, 950.0 * 0.25);
    EXPECT_NEAR(p99, 990.0, 990.0 * 0.25);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, h.max());
    EXPECT_GE(h.percentile(0.0), h.min());
    EXPECT_DOUBLE_EQ(h.percentile(1.0), h.max());
}

TEST(Histogram, EmptyIsWellDefined)
{
    Histogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

// ------------------------- tracer ------------------------------- //

TEST(Tracer, IdenticalRunsProduceIdenticalTraces)
{
    ObsConfig oc;
    RunResult a = runObserved(oc);
    RunResult b = runObserved(oc);
    ASSERT_TRUE(a.obs && b.obs);
    std::vector<TraceEvent> ea = a.obs->tracer.snapshot();
    std::vector<TraceEvent> eb = b.obs->tracer.snapshot();
    ASSERT_GT(ea.size(), 0u);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i)
        ASSERT_TRUE(ea[i] == eb[i]) << "trace diverged at event " << i;
    EXPECT_EQ(a.obs->tracer.strings(), b.obs->tracer.strings());
}

TEST(Tracer, ObservationIsPassive)
{
    // Neither a disabled tracer (null-check-only hooks) nor an
    // enabled one (records without scheduling simulation events) may
    // perturb the run: same event count, same cycle count.
    LinearApp plain(2, 64);
    Engine engine(DeviceConfig::k20c());
    RunResult base =
        engine.run(plain, makeMegakernelConfig(plain.pipeline()));

    ObsConfig off;
    off.trace = false;
    RunResult disabled = runObserved(off);
    EXPECT_EQ(base.simEvents, disabled.simEvents);
    EXPECT_DOUBLE_EQ(base.cycles, disabled.cycles);

    ObsConfig on;
    RunResult enabled = runObserved(on);
    EXPECT_EQ(base.simEvents, enabled.simEvents);
    EXPECT_DOUBLE_EQ(base.cycles, enabled.cycles);
    EXPECT_GT(enabled.obs->tracer.recorded(), 0u);
    EXPECT_EQ(disabled.obs->tracer.recorded(), 0u);
}

TEST(Tracer, RingDropsOldestButKeepsTail)
{
    ObsConfig oc;
    oc.traceCapacity = 32; // force wraparound
    RunResult r = runObserved(oc);
    ASSERT_TRUE(r.obs);
    const Tracer& t = r.obs->tracer;
    EXPECT_GT(t.dropped(), 0u);
    EXPECT_EQ(t.snapshot().size(), 32u);
    // The tail renders the most recent K events, newest last.
    std::string tail = t.tail(4);
    EXPECT_FALSE(tail.empty());
    // The run-wide span is recorded last, so it is always in the tail.
    EXPECT_NE(tail.find("run"), std::string::npos);
}

TEST(Tracer, ExportedJsonIsWellFormed)
{
    ObsConfig oc;
    RunResult r = runObserved(oc);
    std::ostringstream out;
    exportTraceJson(out, r.obs->tracer);
    std::string j = out.str();
    EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\""), std::string::npos);
    EXPECT_NE(j.find("process_name"), std::string::npos);
    EXPECT_NE(j.find("kernel_launch"), std::string::npos);
    EXPECT_EQ(j.back(), '\n');
}

// A sharded run's fault events render with the faults (device kills,
// re-homed stages) or the interconnect (link events, redelivered
// transfers), not on the host track.
TEST(Tracer, GroupFaultEventsPlaceOnTheirProcess)
{
    Simulator sim;
    Tracer t(&sim, 16);
    const std::pair<TraceKind, const char*> want[] = {
        {TraceKind::DeviceKill, "faults"},
        {TraceKind::StageRehome, "faults"},
        {TraceKind::LinkFail, "interconnect"},
        {TraceKind::LinkDegrade, "interconnect"},
        {TraceKind::TransferRedeliver, "interconnect"},
    };
    for (const auto& [kind, process] : want)
        t.instant(kind, 0, 10.0, 1, 2);
    std::ostringstream out;
    exportTraceJson(out, t);
    std::string j = out.str();
    // The pid on the export line of the event or process named by
    // @p key (each line has one pid).
    auto pidAt = [&](const std::string& key) {
        std::size_t at = j.find(key);
        EXPECT_NE(at, std::string::npos) << key;
        std::size_t line = j.rfind('\n', at);
        std::size_t pid = j.find("\"pid\": ", line);
        return at == std::string::npos ? -1 : std::stoi(j.substr(pid + 7));
    };
    for (const auto& [kind, process] : want)
        EXPECT_EQ(pidAt(std::string("\"cat\": \"") + traceKindName(kind)
                        + "\""),
                  pidAt(std::string("{\"name\": \"") + process + "\"}"))
            << traceKindName(kind);
}

// ------------------------- sampler ------------------------------ //

TEST(Sampler, SeriesLengthMatchesRunLength)
{
    ObsConfig oc;
    oc.sampleIntervalCycles = 1000.0;
    RunResult r = runObserved(oc);
    ASSERT_TRUE(r.obs);
    const auto& series = r.obs->sampler.series();
    ASSERT_GE(series.size(), 2u); // acceptance: >= 2 time-series
    // Samples land at k*N for k = 1.. while k*N < run length.
    std::size_t want = 0;
    for (Tick t = 1000.0; t < r.cycles; t += 1000.0)
        ++want;
    for (const TimeSeries& ts : series) {
        EXPECT_EQ(ts.t.size(), want) << "series " << ts.name;
        EXPECT_EQ(ts.v.size(), ts.t.size()) << "series " << ts.name;
        for (std::size_t k = 0; k < ts.t.size(); ++k)
            EXPECT_DOUBLE_EQ(ts.t[k], 1000.0 * (k + 1));
    }
}

TEST(Sampler, SamplingIsPassive)
{
    LinearApp plain(2, 64);
    Engine engine(DeviceConfig::k20c());
    RunResult base =
        engine.run(plain, makeMegakernelConfig(plain.pipeline()));

    ObsConfig oc;
    oc.trace = false;
    oc.sampleIntervalCycles = 500.0; // many slice boundaries
    RunResult sampled = runObserved(oc);
    EXPECT_EQ(base.simEvents, sampled.simEvents);
    EXPECT_DOUBLE_EQ(base.cycles, sampled.cycles);
}

// ------------------------- report ------------------------------- //

TEST(Report, JsonCarriesPercentilesAndSeries)
{
    ObsConfig oc;
    oc.sampleIntervalCycles = 1000.0;
    RunResult r = runObserved(oc);
    std::ostringstream out;
    writeReportJson(out, r);
    std::string j = out.str();
    EXPECT_NE(j.find("\"p50\""), std::string::npos);
    EXPECT_NE(j.find("\"p95\""), std::string::npos);
    EXPECT_NE(j.find("\"p99\""), std::string::npos);
    EXPECT_NE(j.find("\"batch_latency_cycles\""), std::string::npos);
    EXPECT_NE(j.find("\"resident_blocks\""), std::string::npos);
    EXPECT_NE(j.find("\"occupancy\""), std::string::npos);
    EXPECT_NE(j.find("\"outcome\": \"completed\""),
              std::string::npos);

    std::ostringstream csv;
    writeTimeSeriesCsv(csv, *r.obs);
    std::string c = csv.str();
    EXPECT_EQ(c.rfind("t,", 0), 0u); // header row first
    EXPECT_NE(c.find("occupancy"), std::string::npos);
}

TEST(Report, StageHistogramsSeeEveryBatch)
{
    ObsConfig oc;
    RunResult r = runObserved(oc);
    ASSERT_TRUE(r.obs);
    ASSERT_EQ(r.obs->stageBatchCycles.size(), r.stages.size());
    for (std::size_t s = 0; s < r.stages.size(); ++s) {
        EXPECT_EQ(r.obs->stageBatchCycles[s].count(),
                  r.stages[s].batches)
            << "stage " << r.obs->stageNames[s];
    }
}

// ------------------------- failure diagnostics ------------------ //

TEST(Diagnostics, FailureReasonCarriesTraceTail)
{
    // A drain timeout long before the natural run length produces a
    // structured failure whose diagnostic embeds the flight-recorder
    // tail of the trace ring.
    LinearApp app(2, 64);
    Engine engine(DeviceConfig::k20c());
    engine.setObservability(ObsConfig{});
    RecoveryConfig rc;
    rc.watchdogIntervalCycles = 0.0;
    rc.drainTimeoutCycles = 100.0;
    engine.setRecovery(rc);
    RunResult r =
        engine.run(app, makeMegakernelConfig(app.pipeline()));
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.outcome, RunOutcome::DrainTimeout);
    EXPECT_NE(r.failureReason.find("last trace events:"),
              std::string::npos);
    ASSERT_TRUE(r.obs);
    EXPECT_GT(r.obs->tracer.recorded(), 0u);
}

} // namespace
