/**
 * @file
 * Serving-layer tests: token-bucket laws (burst cap, refill, priority
 * ordering, quota isolation), shed-vs-queue overload handling,
 * deterministic request generation (bit-identical reruns of both
 * generator kinds, poll-granularity invariance), engine integration
 * (a disabled ServeConfig run is event-for-event identical to the
 * seed, per-tenant conservation, hand-computed SLO verdicts,
 * 2-device sharded parity, sharded join apps and distributed
 * queues), the epoch-stats snapshot-delta fix, and a byte-exact
 * golden streaming report.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/registry.hh"
#include "apps/vidstream/vidstream_app.hh"
#include "core/engine.hh"
#include "core/shard.hh"
#include "obs/report.hh"
#include "queueing/work_queue.hh"
#include "serve/admission.hh"
#include "serve/request_source.hh"
#include "serve/serving_engine.hh"
#include "toy_apps.hh"

using namespace vp;
using namespace vp::test;

namespace {

/**
 * Linear toy with a tiny input transfer. LinearApp's 64 KiB copy
 * takes ~42k cycles of host time, which would delay the first kernel
 * launch past most of the serving horizon and collapse every request
 * into one completion burst. With a small copy the kernel starts
 * almost immediately, the pipeline drains dry between request
 * bursts, and each epoch exercises the retire/re-wake path.
 */
class ServeLinearApp : public LinearApp
{
  public:
    using LinearApp::LinearApp;
    double inputBytes() const override { return 256.0; }
};

/** One tenant with one bounded client (keeps validate() happy for
 *  controller-only tests that never poll a generator). */
TenantConfig
tenantOf(const std::string& name, double rate, double burst,
         int priority = 0)
{
    TenantConfig tc;
    tc.name = name;
    tc.priority = priority;
    tc.tokensPerCycle = rate;
    tc.burstTokens = burst;
    ClientConfig cl;
    cl.maxRequests = 1;
    tc.clients.push_back(cl);
    return tc;
}

std::vector<Request>
requestsOf(int tenant, int n, Tick at = 0.0)
{
    std::vector<Request> v;
    for (int i = 0; i < n; ++i)
        v.push_back(Request{tenant, 0,
                            static_cast<std::uint64_t>(i), at});
    return v;
}

/** The standard end-to-end serving scenario: two open-loop tenants
 *  over the linear toy pipeline. */
ServeConfig
openLoopConfig()
{
    ServeConfig sc;
    sc.seed = 42;
    sc.epochCycles = 2000.0;
    sc.horizonCycles = 40000.0;
    for (int t = 0; t < 2; ++t) {
        TenantConfig tc = tenantOf("t" + std::to_string(t), 0.01, 8.0);
        tc.clients.clear();
        ClientConfig cl;
        cl.kind = ArrivalKind::OpenLoop;
        cl.meanInterarrivalCycles = 3000.0;
        tc.clients.push_back(cl);
        sc.tenants.push_back(tc);
    }
    return sc;
}

ServeConfig
closedLoopConfig()
{
    ServeConfig sc;
    sc.seed = 7;
    sc.epochCycles = 2000.0;
    TenantConfig tc = tenantOf("cl", 0.05, 4.0);
    tc.clients.clear();
    for (int c = 0; c < 3; ++c) {
        ClientConfig cl;
        cl.kind = ArrivalKind::ClosedLoop;
        cl.thinkCycles = 1500.0;
        cl.maxRequests = 6;
        tc.clients.push_back(cl);
    }
    sc.tenants.push_back(tc);
    return sc;
}

std::vector<std::uint64_t>
stageItems(const RunResult& r)
{
    std::vector<std::uint64_t> v;
    for (const StageRunStats& s : r.stages)
        v.push_back(s.items + s.deadLettered);
    return v;
}

/** Per-tenant and run-total conservation laws of a finished serve. */
void
expectServeConserved(const RunResult& r)
{
    ASSERT_TRUE(r.serving);
    const ServingRunStats& sv = *r.serving;
    std::uint64_t offered = 0, admitted = 0, shed = 0, completed = 0;
    for (const TenantServeStats& t : sv.tenants) {
        EXPECT_EQ(t.offered, t.admitted + t.shed)
            << "tenant " << t.name;
        EXPECT_EQ(t.admitted, t.completed + t.outstanding)
            << "tenant " << t.name;
        offered += t.offered;
        admitted += t.admitted;
        shed += t.shed;
        completed += t.completed;
    }
    EXPECT_EQ(sv.offered, offered);
    EXPECT_EQ(sv.admitted, admitted);
    EXPECT_EQ(sv.shed, shed);
    EXPECT_EQ(sv.completed, completed);
    EXPECT_EQ(sv.admitted, sv.completed + sv.outstanding);
}

/** Full serving fingerprint equality: clock, events, stats. */
void
expectServeEqual(const RunResult& a, const RunResult& b)
{
    EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.simEvents, b.simEvents);
    EXPECT_EQ(stageItems(a), stageItems(b));
    ASSERT_TRUE(a.serving && b.serving);
    const ServingRunStats& x = *a.serving;
    const ServingRunStats& y = *b.serving;
    EXPECT_EQ(x.epochs, y.epochs);
    EXPECT_EQ(x.offered, y.offered);
    EXPECT_EQ(x.admitted, y.admitted);
    EXPECT_EQ(x.shed, y.shed);
    EXPECT_EQ(x.completed, y.completed);
    EXPECT_EQ(x.outstanding, y.outstanding);
    ASSERT_EQ(x.tenants.size(), y.tenants.size());
    for (std::size_t t = 0; t < x.tenants.size(); ++t) {
        EXPECT_EQ(x.tenants[t].completed, y.tenants[t].completed);
        EXPECT_DOUBLE_EQ(x.tenants[t].p50Cycles,
                         y.tenants[t].p50Cycles);
        EXPECT_DOUBLE_EQ(x.tenants[t].p99Cycles,
                         y.tenants[t].p99Cycles);
        EXPECT_DOUBLE_EQ(x.tenants[t].meanCycles,
                         y.tenants[t].meanCycles);
    }
    ASSERT_EQ(x.epochLog.size(), y.epochLog.size());
    for (std::size_t e = 0; e < x.epochLog.size(); ++e) {
        EXPECT_DOUBLE_EQ(x.epochLog[e].at, y.epochLog[e].at);
        EXPECT_EQ(x.epochLog[e].arrivals, y.epochLog[e].arrivals);
        EXPECT_EQ(x.epochLog[e].admitted, y.epochLog[e].admitted);
        EXPECT_EQ(x.epochLog[e].shed, y.epochLog[e].shed);
        EXPECT_EQ(x.epochLog[e].completed, y.epochLog[e].completed);
        EXPECT_EQ(x.epochLog[e].queueTraffic,
                  y.epochLog[e].queueTraffic);
    }
}

} // namespace

// ----------------------- token-bucket laws ---------------------- //

TEST(Admission, BurstCapBoundsFirstEpoch)
{
    ServeConfig sc;
    sc.horizonCycles = 1.0;
    sc.tenants.push_back(tenantOf("a", 0.0, 3.0));
    AdmissionController ac(sc);

    ac.offer(requestsOf(0, 5));
    auto d = ac.admitAt(0.0);
    ASSERT_EQ(d.admitted.size(), 3u);
    EXPECT_EQ(d.shed.size(), 2u);
    // FIFO within the tenant.
    for (std::uint64_t i = 0; i < 3; ++i)
        EXPECT_EQ(d.admitted[i].id, i);
    EXPECT_LT(ac.tokens(0), 1.0);
}

TEST(Admission, RefillIsRateTimesElapsed)
{
    ServeConfig sc;
    sc.horizonCycles = 1.0;
    sc.tenants.push_back(tenantOf("a", 0.01, 8.0));
    AdmissionController ac(sc);

    // Drain the full burst at t=0...
    ac.offer(requestsOf(0, 8));
    EXPECT_EQ(ac.admitAt(0.0).admitted.size(), 8u);
    EXPECT_DOUBLE_EQ(ac.tokens(0), 0.0);

    // ...then 300 cycles refill exactly 3 tokens.
    ac.offer(requestsOf(0, 5, 300.0));
    auto d = ac.admitAt(300.0);
    EXPECT_EQ(d.admitted.size(), 3u);
    EXPECT_EQ(d.shed.size(), 2u);

    // And the refill clamps at the burst capacity.
    auto later = ac.admitAt(1e9);
    EXPECT_TRUE(later.admitted.empty());
    EXPECT_DOUBLE_EQ(ac.tokens(0), 8.0);
}

TEST(Admission, PriorityOrdersTheGlobalBudget)
{
    ServeConfig sc;
    sc.horizonCycles = 1.0;
    sc.maxAdmitPerEpoch = 2;
    sc.tenants.push_back(tenantOf("low", 0.0, 8.0, 0));
    sc.tenants.push_back(tenantOf("high", 0.0, 8.0, 5));
    AdmissionController ac(sc);

    ac.offer(requestsOf(0, 2));
    ac.offer(requestsOf(1, 2));
    auto d = ac.admitAt(0.0);
    // Both buckets have credit; the global cap spends on the
    // high-priority tenant first.
    ASSERT_EQ(d.admitted.size(), 2u);
    EXPECT_EQ(d.admitted[0].tenant, 1);
    EXPECT_EQ(d.admitted[1].tenant, 1);
    EXPECT_EQ(d.shed.size(), 2u);
    EXPECT_EQ(d.shed[0].tenant, 0);
}

TEST(Admission, QuotaIsolatesAFloodingTenant)
{
    ServeConfig sc;
    sc.horizonCycles = 1.0;
    sc.tenants.push_back(tenantOf("flood", 0.0, 4.0));
    sc.tenants.push_back(tenantOf("quiet", 0.0, 8.0));
    AdmissionController ac(sc);

    ac.offer(requestsOf(0, 20));
    ac.offer(requestsOf(1, 2));
    auto d = ac.admitAt(0.0);
    int floodAdmitted = 0, quietAdmitted = 0;
    for (const Request& q : d.admitted)
        (q.tenant == 0 ? floodAdmitted : quietAdmitted)++;
    // The flood exhausts only its own bucket; the quiet tenant's
    // admission is untouched.
    EXPECT_EQ(floodAdmitted, 4);
    EXPECT_EQ(quietAdmitted, 2);
    EXPECT_EQ(d.shed.size(), 16u);
    EXPECT_DOUBLE_EQ(ac.tokens(1), 6.0);
}

TEST(Admission, ShedVersusQueueOverload)
{
    ServeConfig shedCfg;
    shedCfg.horizonCycles = 1.0;
    shedCfg.overload = OverloadPolicy::Shed;
    shedCfg.tenants.push_back(tenantOf("a", 0.01, 2.0));
    AdmissionController shed(shedCfg);
    shed.offer(requestsOf(0, 6));
    auto ds = shed.admitAt(0.0);
    EXPECT_EQ(ds.admitted.size(), 2u);
    EXPECT_EQ(ds.shed.size(), 4u);
    EXPECT_EQ(shed.waiting(0), 0u);

    ServeConfig qCfg = shedCfg;
    qCfg.overload = OverloadPolicy::Queue;
    qCfg.queueCapacity = 3;
    AdmissionController q(qCfg);
    q.offer(requestsOf(0, 6));
    auto dq = q.admitAt(0.0);
    EXPECT_EQ(dq.admitted.size(), 2u);
    // Capacity 3 stays parked; only the newest overflow sheds.
    EXPECT_EQ(dq.shed.size(), 1u);
    EXPECT_EQ(dq.shed[0].id, 5u);
    EXPECT_EQ(q.waiting(0), 3u);

    // The parked requests admit FIFO once the bucket refills.
    auto dq2 = q.admitAt(200.0);
    ASSERT_EQ(dq2.admitted.size(), 2u);
    EXPECT_EQ(dq2.admitted[0].id, 2u);
    EXPECT_EQ(dq2.admitted[1].id, 3u);
    EXPECT_EQ(q.waiting(0), 1u);
}

// ------------------- deterministic generators ------------------- //

TEST(RequestSource, OpenLoopRerunIsBitIdentical)
{
    ServeConfig sc = openLoopConfig();
    RequestSource a(sc);
    RequestSource b(sc);
    std::vector<Request> ra, rb;
    for (Tick t = sc.epochCycles; t <= sc.horizonCycles + 1;
         t += sc.epochCycles) {
        a.poll(t, ra);
        b.poll(t, rb);
    }
    ASSERT_EQ(ra.size(), rb.size());
    ASSERT_FALSE(ra.empty());
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].tenant, rb[i].tenant);
        EXPECT_EQ(ra[i].client, rb[i].client);
        EXPECT_EQ(ra[i].id, rb[i].id);
        EXPECT_DOUBLE_EQ(ra[i].arrival, rb[i].arrival);
        EXPECT_EQ(ra[i].id, static_cast<std::uint64_t>(i));
        if (i > 0) {
            EXPECT_GE(ra[i].arrival, ra[i - 1].arrival);
        }
    }
    EXPECT_TRUE(a.exhausted());
}

TEST(RequestSource, OpenLoopArrivalsIndependentOfPollGranularity)
{
    // Arrival times are a pure function of (seed, clock): slicing the
    // same horizon into fine or coarse polls yields the identical
    // request sequence.
    ServeConfig sc = openLoopConfig();
    RequestSource fine(sc);
    RequestSource coarse(sc);
    std::vector<Request> rf, rc;
    for (Tick t = 500.0; t <= sc.horizonCycles + 1; t += 500.0)
        fine.poll(t, rf);
    coarse.poll(sc.horizonCycles + 1, rc);
    ASSERT_EQ(rf.size(), rc.size());
    for (std::size_t i = 0; i < rf.size(); ++i) {
        EXPECT_EQ(rf[i].id, rc[i].id);
        EXPECT_DOUBLE_EQ(rf[i].arrival, rc[i].arrival);
    }
}

TEST(RequestSource, ClosedLoopReplayIsBitIdentical)
{
    ServeConfig sc = closedLoopConfig();
    RequestSource a(sc);
    RequestSource b(sc);
    std::vector<Request> ra, rb;
    // Same completion schedule -> same think draws -> same stream.
    for (int round = 1; round <= 30; ++round) {
        Tick t = round * sc.epochCycles;
        std::size_t beforeA = ra.size();
        a.poll(t, ra);
        b.poll(t, rb);
        ASSERT_EQ(ra.size(), rb.size());
        for (std::size_t i = beforeA; i < ra.size(); ++i) {
            EXPECT_EQ(ra[i].client, rb[i].client);
            EXPECT_DOUBLE_EQ(ra[i].arrival, rb[i].arrival);
            // "Service" takes 100 cycles.
            a.noteRequestDone(ra[i].tenant, ra[i].client,
                              ra[i].arrival + 100.0);
            b.noteRequestDone(rb[i].tenant, rb[i].client,
                              rb[i].arrival + 100.0);
        }
    }
    // 3 clients x 6 requests, all issued and none still waiting.
    EXPECT_EQ(ra.size(), 18u);
    EXPECT_TRUE(a.exhausted());
    EXPECT_TRUE(b.exhausted());
}

TEST(RequestSource, QueueOverflowShedsReArmClosedLoopClients)
{
    // The wedge repro: a closed-loop client whose request is
    // displaced by Queue-policy overflow ("sheds the newest") must be
    // released via noteRequestDone like any other shed, or it waits
    // forever, exhausted() never turns true, and the serve loop spins
    // on zero-event epochs. This mirrors ServeSessionImpl::epoch(),
    // which completes every element of the admission delta's shed
    // list back to the source; the loop bound turns a wedge into a
    // test failure instead of a hang.
    ServeConfig sc;
    sc.seed = 11;
    sc.epochCycles = 500.0;
    sc.overload = OverloadPolicy::Queue;
    sc.queueCapacity = 1; // overflow displaces on every burst
    TenantConfig tc = tenantOf("cl", /*rate=*/0.002, /*burst=*/1.0);
    tc.clients.clear();
    for (int c = 0; c < 4; ++c) {
        ClientConfig cl;
        cl.kind = ArrivalKind::ClosedLoop;
        cl.thinkCycles = 100.0;
        cl.maxRequests = 3;
        tc.clients.push_back(cl);
    }
    sc.tenants.push_back(tc);

    RequestSource src(sc);
    AdmissionController ac(sc);
    std::vector<Request> arrivals;
    std::uint64_t admitted = 0, shed = 0;
    int rounds = 0;
    for (int round = 1; round <= 200; ++round) {
        rounds = round;
        Tick now = round * sc.epochCycles;
        arrivals.clear();
        src.poll(now, arrivals);
        if (arrivals.empty() && src.exhausted()
            && ac.waitingTotal() == 0)
            break;
        ac.offer(arrivals);
        auto d = ac.admitAt(now);
        admitted += d.admitted.size();
        shed += d.shed.size();
        // Admitted requests "serve" instantly; displaced ones must
        // also release their client or the loop never drains.
        for (const Request& q : d.admitted)
            src.noteRequestDone(q.tenant, q.client, now);
        for (const Request& q : d.shed)
            src.noteRequestDone(q.tenant, q.client, now);
    }
    EXPECT_TRUE(src.exhausted())
        << "closed-loop clients wedged; still waiting after "
        << rounds << " rounds";
    EXPECT_GT(shed, 0u) << "scenario never overflowed the queue";
    // 4 clients x 3 requests, each admitted or displaced exactly once.
    EXPECT_EQ(admitted + shed, 12u);
}

// ----------------------- SLO arithmetic ------------------------- //

TEST(Slo, VerdictsMatchHandComputedPercentiles)
{
    std::vector<double> lats;
    for (int i = 1; i <= 10; ++i)
        lats.push_back(i * 10.0); // 10, 20, ..., 100

    // nearest-rank: p50 = ceil(0.5*10) = 5th -> 50;
    //               p99 = ceil(0.99*10) = 10th -> 100.
    TenantConfig tc;
    tc.name = "hand";
    tc.sloP50Cycles = 60.0;
    tc.sloP99Cycles = 90.0;
    TenantServeStats ts = summarizeTenantLatencies(tc, lats);
    EXPECT_DOUBLE_EQ(ts.p50Cycles, 50.0);
    EXPECT_DOUBLE_EQ(ts.p99Cycles, 100.0);
    EXPECT_DOUBLE_EQ(ts.meanCycles, 55.0);
    EXPECT_DOUBLE_EQ(ts.maxCycles, 100.0);
    EXPECT_TRUE(ts.sloP50Ok);   // 50 <= 60
    EXPECT_FALSE(ts.sloP99Ok);  // 100 > 90
    EXPECT_EQ(ts.deadlineMisses, 1u); // only 100 exceeds 90

    // No target -> vacuously true verdicts.
    TenantConfig open;
    TenantServeStats to = summarizeTenantLatencies(open, lats);
    EXPECT_TRUE(to.sloP50Ok);
    EXPECT_TRUE(to.sloP99Ok);
    EXPECT_EQ(to.deadlineMisses, 0u);

    // Empty sample -> zeros, still vacuous.
    TenantServeStats te = summarizeTenantLatencies(tc, {});
    EXPECT_DOUBLE_EQ(te.p50Cycles, 0.0);
    EXPECT_EQ(te.completed, 0u);
}

TEST(Slo, DeadlineBoundaryCountsConsistently)
{
    // The off-by-one pin: a request completing exactly at
    // deadlineCycles is a hit in *both* accountings — the miss
    // counter (strict >) and the SLO verdict (p99 <= target) — so
    // the two can never disagree about the boundary value.
    std::vector<double> lats = {80.0, 100.0, 120.0};
    TenantConfig tc;
    tc.name = "dl";
    tc.deadlineCycles = 100.0;
    TenantServeStats ts = summarizeTenantLatencies(tc, lats);
    EXPECT_EQ(ts.deadlineMisses, 1u); // only 120; exactly-100 hits
    EXPECT_DOUBLE_EQ(ts.deadlineHitRate, 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(ts.deadlineCycles, 100.0);

    // When both a deadline and a p99 target are set, the deadline
    // owns the miss line; the verdict still judges the percentile.
    TenantConfig both = tc;
    both.sloP99Cycles = 100.0;
    TenantServeStats tb = summarizeTenantLatencies(both, lats);
    EXPECT_FALSE(tb.sloP99Ok); // p99 = 120 > 100
    EXPECT_EQ(tb.deadlineMisses, 1u);

    TenantConfig slack = tc;
    slack.deadlineCycles = 200.0;
    slack.sloP99Cycles = 90.0; // would count 2 misses if it ruled
    TenantServeStats tsl = summarizeTenantLatencies(slack, lats);
    EXPECT_EQ(tsl.deadlineMisses, 0u);
    EXPECT_DOUBLE_EQ(tsl.deadlineHitRate, 1.0);
    EXPECT_FALSE(tsl.sloP99Ok);

    // Boundary agreement: p99 lands exactly on the shared line ->
    // the verdict passes and the miss counter stays at zero.
    TenantConfig edge;
    edge.name = "edge";
    edge.sloP99Cycles = 120.0;
    edge.deadlineCycles = 120.0;
    TenantServeStats te = summarizeTenantLatencies(edge, lats);
    EXPECT_TRUE(te.sloP99Ok);
    EXPECT_EQ(te.deadlineMisses, 0u);
    EXPECT_DOUBLE_EQ(te.deadlineHitRate, 1.0);

    // No deadline -> the hit-rate stays at its vacuous default even
    // when the p99 line counts misses.
    TenantConfig sloOnly;
    sloOnly.sloP99Cycles = 100.0;
    TenantServeStats to = summarizeTenantLatencies(sloOnly, lats);
    EXPECT_EQ(to.deadlineMisses, 1u);
    EXPECT_DOUBLE_EQ(to.deadlineHitRate, 1.0);
    EXPECT_DOUBLE_EQ(to.deadlineCycles, 0.0);
}

// --------------------- engine integration ----------------------- //

TEST(Serving, DisabledConfigMatchesSeedRun)
{
    // The acceptance gate: a default ServeConfig{} serve must be
    // event-for-event identical to a plain engine run.
    ServeLinearApp plainApp(2, 16);
    Engine plain(DeviceConfig::byName("gtx1080"));
    PipelineConfig cfg = makeMegakernelConfig(plainApp.pipeline());
    RunResult base = plain.run(plainApp, cfg);
    ASSERT_TRUE(base.completed);

    ServeLinearApp servedApp(2, 16);
    Engine engine(DeviceConfig::byName("gtx1080"));
    ServingEngine serve(engine, ServeConfig{});
    FlowServingWorkload wl(servedApp);
    RunResult r = serve.run(
        wl, makeMegakernelConfig(servedApp.pipeline()));
    ASSERT_TRUE(r.completed);

    EXPECT_EQ(base.simEvents, r.simEvents);
    EXPECT_DOUBLE_EQ(base.cycles, r.cycles);
    EXPECT_EQ(stageItems(base), stageItems(r));
    EXPECT_FALSE(r.serving);
    // And the engine came back clean: no session, no armed obs.
    EXPECT_EQ(engine.serveSession(), nullptr);
    EXPECT_FALSE(engine.observability().has_value());
}

// Requests re-seed flows, so a later request's bands arrive again at
// joins an earlier one completed: each join fires once per run, and
// the late arrivals are dropped instead of failing the run.
TEST(Serving, ReseededFlowsJoinOncePerRun)
{
    auto app = makeApp("pyramid", AppScale::Small);
    Engine engine(DeviceConfig::byName("gtx1080"));
    ServingEngine serve(engine, openLoopConfig());
    FlowServingWorkload wl(*app);
    RunResult r = serve.run(wl, makeMegakernelConfig(app->pipeline()));
    ASSERT_TRUE(r.completed) << r.failureReason;
    ASSERT_TRUE(r.serving);
    EXPECT_GT(r.serving->admitted,
              static_cast<std::uint64_t>(app->flowCount()));
    EXPECT_EQ(r.stages[1].items,
              static_cast<std::uint64_t>(app->flowCount()));
}

TEST(Serving, OpenLoopServeRerunsBitIdentical)
{
    ServeConfig sc = openLoopConfig();
    RunResult first, second;
    for (RunResult* out : {&first, &second}) {
        ServeLinearApp app(2, 8);
        Engine engine(DeviceConfig::byName("gtx1080"));
        ServingEngine serve(engine, sc);
        FlowServingWorkload wl(app);
        *out = serve.run(wl, makeMegakernelConfig(app.pipeline()));
        ASSERT_TRUE(out->completed) << out->failureReason;
    }
    ASSERT_TRUE(first.serving);
    EXPECT_GT(first.serving->offered, 0u);
    EXPECT_GT(first.serving->completed, 0u);
    expectServeEqual(first, second);
    expectServeConserved(first);
    // Fully drained: nothing in flight once the horizon passed.
    EXPECT_EQ(first.serving->outstanding, 0u);
}

TEST(Serving, ClosedLoopServeRerunsBitIdentical)
{
    ServeConfig sc = closedLoopConfig();
    RunResult first, second;
    for (RunResult* out : {&first, &second}) {
        ServeLinearApp app(2, 8);
        Engine engine(DeviceConfig::byName("gtx1080"));
        ServingEngine serve(engine, sc);
        FlowServingWorkload wl(app);
        *out = serve.run(wl, makeMegakernelConfig(app.pipeline()));
        ASSERT_TRUE(out->completed) << out->failureReason;
    }
    ASSERT_TRUE(first.serving);
    // Closed loop is self-limiting: every request eventually admits,
    // completes, and triggers the next, down to the per-client cap.
    EXPECT_EQ(first.serving->offered, 18u);
    EXPECT_EQ(first.serving->completed + first.serving->shed, 18u);
    expectServeEqual(first, second);
    expectServeConserved(first);
    EXPECT_EQ(first.serving->outstanding, 0u);
}

TEST(Serving, ConservationAndProvenanceUnderOverload)
{
    // Starve the buckets so a real fraction of the offered load
    // sheds; per-tenant conservation and lineage closure must both
    // hold.
    ServeConfig sc = openLoopConfig();
    for (TenantConfig& t : sc.tenants) {
        t.tokensPerCycle = 0.001;
        t.burstTokens = 2.0;
        for (ClientConfig& c : t.clients)
            c.meanInterarrivalCycles = 800.0;
    }
    ServeLinearApp app(2, 8);
    Engine engine(DeviceConfig::byName("gtx1080"));
    ServingEngine serve(engine, sc);
    FlowServingWorkload wl(app);
    RunResult r = serve.run(wl, makeMegakernelConfig(app.pipeline()));
    ASSERT_TRUE(r.completed) << r.failureReason;
    expectServeConserved(r);
    EXPECT_GT(r.serving->shed, 0u);
    EXPECT_GT(r.serving->completed, 0u);
    EXPECT_EQ(r.serving->outstanding, 0u);

    // Every tracked lineage resolved (the serving loop only ends
    // after the pipeline drains what was admitted).
    ASSERT_TRUE(r.obs && r.obs->provenance);
    EXPECT_EQ(r.obs->provenance->countByFate(ItemFate::Open), 0u);
}

TEST(Serving, QueuePolicyAdmitsWhatShedWouldDrop)
{
    ServeConfig shedCfg = openLoopConfig();
    for (TenantConfig& t : shedCfg.tenants) {
        t.tokensPerCycle = 0.001;
        t.burstTokens = 2.0;
        for (ClientConfig& c : t.clients)
            c.meanInterarrivalCycles = 800.0;
    }
    ServeConfig queueCfg = shedCfg;
    queueCfg.overload = OverloadPolicy::Queue;
    queueCfg.queueCapacity = 64;

    auto serveWith = [](const ServeConfig& sc) {
        ServeLinearApp app(2, 8);
        Engine engine(DeviceConfig::byName("gtx1080"));
        ServingEngine serve(engine, sc);
        FlowServingWorkload wl(app);
        RunResult r =
            serve.run(wl, makeMegakernelConfig(app.pipeline()));
        EXPECT_TRUE(r.completed) << r.failureReason;
        return r;
    };
    RunResult shed = serveWith(shedCfg);
    RunResult queued = serveWith(queueCfg);
    expectServeConserved(shed);
    expectServeConserved(queued);
    // Identical offered load (open loop), but queuing converts
    // rejections into (delayed) admissions.
    EXPECT_EQ(shed.serving->offered, queued.serving->offered);
    EXPECT_GT(shed.serving->shed, queued.serving->shed);
    EXPECT_GT(queued.serving->admitted, shed.serving->admitted);
}

TEST(Serving, SloVerdictsSurfaceInRunResult)
{
    ServeConfig sc = openLoopConfig();
    sc.tenants[0].sloP50Cycles = 0.001; // impossible target
    sc.tenants[1].sloP99Cycles = 1e12;  // trivial target
    ServeLinearApp app(2, 8);
    Engine engine(DeviceConfig::byName("gtx1080"));
    ServingEngine serve(engine, sc);
    FlowServingWorkload wl(app);
    RunResult r = serve.run(wl, makeMegakernelConfig(app.pipeline()));
    ASSERT_TRUE(r.completed) << r.failureReason;
    ASSERT_TRUE(r.serving);
    ASSERT_EQ(r.serving->tenants.size(), 2u);
    const TenantServeStats& t0 = r.serving->tenants[0];
    const TenantServeStats& t1 = r.serving->tenants[1];
    ASSERT_GT(t0.completed, 0u);
    EXPECT_FALSE(t0.sloP50Ok);
    EXPECT_TRUE(t1.sloP99Ok);
    // The reported percentiles are ordered and within range.
    EXPECT_LE(t0.p50Cycles, t0.p99Cycles);
    EXPECT_LE(t0.p99Cycles, t0.maxCycles);
    EXPECT_GT(t0.p50Cycles, 0.0);
    // And the e2e latency histograms landed in the metrics registry.
    ASSERT_TRUE(r.obs);
    EXPECT_EQ(r.obs->metrics.histogram("serve/e2e/t0", 16.0, 1.25)
                  .count(),
              t0.completed);
}

TEST(Serving, ShardedTwoDeviceServeRerunsBitIdentical)
{
    ServeConfig sc = openLoopConfig();
    DeviceGroupConfig group = DeviceGroupConfig::homogeneous(
        DeviceConfig::byName("gtx1080"), 2);
    RunResult first, second;
    for (RunResult* out : {&first, &second}) {
        ServeLinearApp app(2, 8);
        Engine engine(group);
        ServingEngine serve(engine, sc);
        FlowServingWorkload wl(app);
        *out = serve.runSharded(
            wl, makeMegakernelConfig(app.pipeline()),
            ShardPlan::replicateAll(app.pipeline()));
        ASSERT_TRUE(out->completed) << out->failureReason;
    }
    ASSERT_TRUE(first.serving);
    EXPECT_GT(first.serving->completed, 0u);
    expectServeEqual(first, second);
    expectServeConserved(first);
    EXPECT_EQ(first.serving->outstanding, 0u);
}

// Requests re-seed flows whose joins already fired. Sharded serving
// drops those late arrivals like single-device serving, so every
// admitted request of a join app completes on 1 and 2 devices.
TEST(Serving, ShardedJoinAppsServeEveryRequest)
{
    DeviceConfig dev = DeviceConfig::byName("gtx1080");
    for (const char* name : {"pyramid", "facedetect"}) {
        for (int devices : {1, 2}) {
            SCOPED_TRACE(std::string(name) + " on "
                         + std::to_string(devices) + " device(s)");
            auto app = makeApp(name, AppScale::Small);
            Engine engine(DeviceGroupConfig::homogeneous(dev, devices));
            ServingEngine serve(engine, openLoopConfig());
            FlowServingWorkload wl(*app);
            RunResult r = serve.runSharded(
                wl, makeMegakernelConfig(app->pipeline()),
                ShardPlan::replicateAll(app->pipeline()));
            ASSERT_TRUE(r.completed) << r.failureReason;
            expectServeConserved(r);
            ASSERT_TRUE(r.serving);
            EXPECT_GT(r.serving->admitted, 0u);
            EXPECT_EQ(r.serving->completed, r.serving->admitted);
        }
    }
}

// Under distributed queues, blocks read only their per-SM queue
// shards. Epoch seeds must land there on a single device too, so
// every request completes and the plain run equals the 1-device
// group's.
TEST(Serving, DistributedQueuesServeEveryRequest)
{
    DeviceConfig dev = DeviceConfig::byName("gtx1080");
    // Stranded requests would poll on; end such a run at a timeout.
    RecoveryConfig rc;
    rc.drainTimeoutCycles = 1e6;
    auto serveOn = [&](Engine& engine, bool sharded) {
        engine.setRecovery(rc);
        ServeLinearApp app(2, 8);
        ServingEngine serve(engine, openLoopConfig());
        FlowServingWorkload wl(app);
        PipelineConfig cfg = makeMegakernelConfig(app.pipeline());
        cfg.distributedQueues = true;
        return sharded
            ? serve.runSharded(wl, cfg,
                               ShardPlan::replicateAll(app.pipeline()))
            : serve.run(wl, cfg);
    };
    Engine single(dev);
    Engine group(DeviceGroupConfig::homogeneous(dev, 1));
    RunResult plain = serveOn(single, false);
    RunResult grouped = serveOn(group, true);
    for (const RunResult* r : {&plain, &grouped}) {
        ASSERT_TRUE(r->completed) << r->failureReason;
        ASSERT_TRUE(r->serving);
        expectServeConserved(*r);
        EXPECT_GT(r->serving->admitted, 0u);
        EXPECT_EQ(r->serving->completed, r->serving->admitted);
    }
    expectServeEqual(plain, grouped);
}

TEST(Serving, ShardedDisabledConfigMatchesSeedRun)
{
    DeviceGroupConfig group = DeviceGroupConfig::homogeneous(
        DeviceConfig::byName("gtx1080"), 2);

    ServeLinearApp plainApp(2, 16);
    Engine plain(group);
    RunResult base = plain.runSharded(
        plainApp, makeMegakernelConfig(plainApp.pipeline()),
        ShardPlan::replicateAll(plainApp.pipeline()));
    ASSERT_TRUE(base.completed);

    ServeLinearApp servedApp(2, 16);
    Engine engine(group);
    ServingEngine serve(engine, ServeConfig{});
    FlowServingWorkload wl(servedApp);
    RunResult r = serve.runSharded(
        wl, makeMegakernelConfig(servedApp.pipeline()),
        ShardPlan::replicateAll(servedApp.pipeline()));
    ASSERT_TRUE(r.completed);

    EXPECT_EQ(base.simEvents, r.simEvents);
    EXPECT_DOUBLE_EQ(base.cycles, r.cycles);
    EXPECT_EQ(stageItems(base), stageItems(r));
}

TEST(Serving, QueueOverflowClosedLoopServeCompletes)
{
    // Engine-level wedge repro: closed-loop clients behind a
    // capacity-1 waiting room and a starved bucket. Under Queue
    // policy every shed *is* an overflow displacement, so shed > 0
    // proves the repro fired; the run completing at all proves the
    // displaced clients were re-armed (a wedged client would hang
    // the serve loop, since closed-loop generators bound the run).
    ServeConfig sc = closedLoopConfig();
    sc.overload = OverloadPolicy::Queue;
    sc.queueCapacity = 1;
    sc.tenants[0].tokensPerCycle = 0.0005;
    sc.tenants[0].burstTokens = 1.0;
    ServeLinearApp app(2, 8);
    Engine engine(DeviceConfig::byName("gtx1080"));
    ServingEngine serve(engine, sc);
    FlowServingWorkload wl(app);
    RunResult r = serve.run(wl, makeMegakernelConfig(app.pipeline()));
    ASSERT_TRUE(r.completed) << r.failureReason;
    expectServeConserved(r);
    ASSERT_TRUE(r.serving);
    EXPECT_GT(r.serving->shed, 0u);
    EXPECT_GT(r.serving->completed, 0u);
    EXPECT_EQ(r.serving->offered, 18u);
    EXPECT_EQ(r.serving->completed + r.serving->shed, 18u);
    EXPECT_EQ(r.serving->outstanding, 0u);
}

TEST(Serving, UserSampledProvenanceIsHonored)
{
    // The sampling-stride regression: ServingEngine used to overwrite
    // a user-armed ObsConfig::provenanceSampleEvery with 1. It must
    // honor the stride (request roots are force-tracked regardless,
    // so completion detection still sees every lineage) and restore
    // the engine's observability afterwards.
    auto serveWith = [](std::uint64_t sampleEvery) {
        ServeLinearApp app(2, 8);
        Engine engine(DeviceConfig::byName("gtx1080"));
        if (sampleEvery > 0) {
            ObsConfig oc;
            oc.trace = false;
            oc.sampleIntervalCycles = 0.0;
            oc.provenance = false; // the serve arms provenance itself
            oc.provenanceSampleEvery = sampleEvery;
            engine.setObservability(oc);
        }
        ServingEngine serve(engine, openLoopConfig());
        FlowServingWorkload wl(app);
        RunResult r =
            serve.run(wl, makeMegakernelConfig(app.pipeline()));
        EXPECT_TRUE(r.completed) << r.failureReason;
        // The engine's own config came back exactly as armed.
        if (sampleEvery > 0) {
            EXPECT_TRUE(engine.observability().has_value());
            if (engine.observability()) {
                EXPECT_EQ(
                    engine.observability()->provenanceSampleEvery,
                    sampleEvery);
                EXPECT_FALSE(engine.observability()->provenance);
            }
        } else {
            EXPECT_FALSE(engine.observability().has_value());
        }
        return r;
    };

    RunResult dflt = serveWith(0);    // no user obs at all
    RunResult full = serveWith(1);    // explicit track-everything
    RunResult sampled = serveWith(4); // the formerly clobbered case

    // The run tracker carries the caller's stride, not a forced 1.
    ASSERT_TRUE(sampled.obs && sampled.obs->provenance);
    EXPECT_EQ(sampled.obs->provenance->sampleEvery(), 4u);
    ASSERT_TRUE(full.obs && full.obs->provenance);
    EXPECT_EQ(full.obs->provenance->sampleEvery(), 1u);
    ASSERT_TRUE(dflt.obs && dflt.obs->provenance);
    EXPECT_EQ(dflt.obs->provenance->sampleEvery(), 1u);

    // The stride genuinely thinned the pre-seeded app items (the
    // clobbered-to-1 bug tracked every seed), yet request roots stay
    // force-tracked, so both runs saw the same seed stream and every
    // tracked lineage still closed.
    EXPECT_EQ(sampled.obs->provenance->seedsSeen(),
              full.obs->provenance->seedsSeen());
    EXPECT_EQ(full.obs->provenance->seedsTracked(),
              full.obs->provenance->seedsSeen());
    EXPECT_LT(sampled.obs->provenance->seedsTracked(),
              sampled.obs->provenance->seedsSeen());
    EXPECT_EQ(sampled.obs->provenance->countByFate(ItemFate::Open),
              0u);
    // ...and provenance stays passive: all three serves are
    // event-for-event and stat-for-stat identical.
    expectServeEqual(dflt, full);
    expectServeEqual(full, sampled);
    expectServeConserved(sampled);
}

// ------------------- vidstream frame serving --------------------- //

TEST(Serving, VidstreamFrameClockDeadlinesRerunBitIdentical)
{
    // The streaming scenario end-to-end: one open-loop tenant per
    // camera issuing frames on a frame clock, per-frame deadlines on
    // every tenant. Even cameras get an impossible 1-cycle budget
    // (every completion misses), odd cameras an unbounded one (every
    // completion hits), so the expected verdicts are exact regardless
    // of the simulated latencies; a rerun must reproduce the
    // deadline accounting bit for bit.
    vidstream::VsParams p = vidstream::VsParams::small();
    ServeConfig sc;
    sc.seed = 2026;
    sc.epochCycles = 2000.0;
    sc.horizonCycles = 60000.0;
    for (int cam = 0; cam < p.cameras; ++cam) {
        TenantConfig tc;
        tc.name = "cam" + std::to_string(cam);
        tc.tokensPerCycle = 0.01;
        tc.burstTokens = 4.0;
        tc.deadlineCycles = (cam % 2 == 0) ? 1.0 : 1e12;
        ClientConfig cl;
        cl.kind = ArrivalKind::OpenLoop;
        cl.meanInterarrivalCycles = 4000.0; // the frame clock
        tc.clients.push_back(cl);
        sc.tenants.push_back(tc);
    }

    RunResult first, second;
    for (RunResult* out : {&first, &second}) {
        vidstream::VidstreamApp app(p);
        Engine engine(DeviceConfig::byName("gtx1080"));
        ServingEngine serve(engine, sc);
        vidstream::VsFrameWorkload wl(app);
        *out = serve.run(wl, makeMegakernelConfig(app.pipeline()));
        ASSERT_TRUE(out->completed) << out->failureReason;
    }
    expectServeEqual(first, second);
    expectServeConserved(first);
    ASSERT_TRUE(first.serving);
    const ServingRunStats& sv = *first.serving;
    EXPECT_GT(sv.completed, 0u);
    EXPECT_EQ(sv.outstanding, 0u);
    ASSERT_EQ(sv.tenants.size(), static_cast<std::size_t>(p.cameras));

    std::uint64_t misses = 0, completed = 0;
    for (std::size_t t = 0; t < sv.tenants.size(); ++t) {
        const TenantServeStats& ts = sv.tenants[t];
        ASSERT_GT(ts.completed, 0u) << ts.name;
        if (t % 2 == 0) {
            // 1-cycle budget: every frame misses.
            EXPECT_EQ(ts.deadlineMisses, ts.completed) << ts.name;
            EXPECT_DOUBLE_EQ(ts.deadlineHitRate, 0.0) << ts.name;
        } else {
            EXPECT_EQ(ts.deadlineMisses, 0u) << ts.name;
            EXPECT_DOUBLE_EQ(ts.deadlineHitRate, 1.0) << ts.name;
        }
        misses += ts.deadlineMisses;
        completed += ts.completed;
    }
    // Run totals tile the per-tenant accounting exactly.
    EXPECT_EQ(sv.deadlineMisses, misses);
    EXPECT_DOUBLE_EQ(
        sv.deadlineHitRate,
        static_cast<double>(completed - misses)
            / static_cast<double>(completed));

    // And the rerun reproduced every deadline verdict.
    for (std::size_t t = 0; t < sv.tenants.size(); ++t) {
        EXPECT_EQ(second.serving->tenants[t].deadlineMisses,
                  sv.tenants[t].deadlineMisses);
        EXPECT_DOUBLE_EQ(second.serving->tenants[t].deadlineHitRate,
                         sv.tenants[t].deadlineHitRate);
    }
    EXPECT_EQ(second.serving->deadlineMisses, sv.deadlineMisses);
    EXPECT_DOUBLE_EQ(second.serving->deadlineHitRate,
                     sv.deadlineHitRate);
}

TEST(Serving, VidstreamMegakernelServeElidesItsIdlePolls)
{
    // The perfbench vidstream-serve scenario at a 2M-cycle horizon:
    // Megakernel blocks spend most of the run parked, and the engine
    // dispatches only the polls that can see new work. Measured:
    // 2,252 of 240,941 events dispatched (0.93%); a change that
    // dispatches idle polls again fails here.
    vidstream::VsParams p = vidstream::VsParams::small();
    ServeConfig sc;
    sc.seed = 20260808;
    sc.epochCycles = 4000.0;
    sc.horizonCycles = 2.0e6;
    for (int cam = 0; cam < p.cameras; ++cam) {
        TenantConfig tc;
        tc.name = "cam" + std::to_string(cam);
        tc.tokensPerCycle = 0.001;
        tc.burstTokens = 4.0;
        tc.deadlineCycles = 60000.0;
        ClientConfig cl;
        cl.kind = ArrivalKind::OpenLoop;
        cl.meanInterarrivalCycles = 40000.0;
        tc.clients.push_back(cl);
        sc.tenants.push_back(tc);
    }
    vidstream::VidstreamApp app(p);
    Engine engine(DeviceConfig::gtx1080());
    ServingEngine serve(engine, sc);
    vidstream::VsFrameWorkload wl(app);
    RunResult r = serve.run(wl, makeMegakernelConfig(app.pipeline()));
    ASSERT_TRUE(r.completed) << r.failureReason;
    EXPECT_GT(r.polls, r.simEvents / 2);
    EXPECT_LT(r.dispatchedEvents * 20, r.simEvents);
}

// ----------------- epoch stats: snapshot deltas ------------------ //

TEST(Serving, EpochLogDeltasSumToRunTotals)
{
    // The regression behind the snapshot-delta fix: per-epoch stats
    // are differences of run-total snapshots, so they must tile the
    // run exactly — no double counting, no leaks across epochs.
    ServeConfig sc = openLoopConfig();
    ServeLinearApp app(2, 8);
    Engine engine(DeviceConfig::byName("gtx1080"));
    ServingEngine serve(engine, sc);
    FlowServingWorkload wl(app);
    RunResult r = serve.run(wl, makeMegakernelConfig(app.pipeline()));
    ASSERT_TRUE(r.completed) << r.failureReason;
    ASSERT_TRUE(r.serving);
    const ServingRunStats& sv = *r.serving;
    ASSERT_GE(sv.epochLog.size(), 3u);
    std::uint64_t arrivals = 0, admitted = 0, shed = 0,
                  completed = 0, traffic = 0;
    Tick prev = 0.0;
    for (const ServeEpochStats& e : sv.epochLog) {
        EXPECT_GT(e.at, prev);
        prev = e.at;
        arrivals += e.arrivals;
        admitted += e.admitted;
        shed += e.shed;
        completed += e.completed;
        traffic += e.queueTraffic;
    }
    EXPECT_EQ(arrivals, sv.offered);
    EXPECT_EQ(admitted, sv.admitted);
    EXPECT_EQ(shed, sv.shed);
    EXPECT_EQ(completed, sv.completed);
    EXPECT_GT(traffic, 0u);
}

TEST(QueueEpochStats, SnapshotDeltasMatchFreshQueues)
{
    // A 3-epoch continuous run sliced by stats() snapshots must equal
    // three fresh per-epoch queues (accesses spaced beyond the
    // contention window so the cost of each epoch is self-contained).
    DeviceConfig dev = DeviceConfig::byName("gtx1080");
    WorkQueue<int> continuous("q");
    QueueStats snap;
    for (int epoch = 0; epoch < 3; ++epoch) {
        WorkQueue<int> fresh("q");
        Tick base = epoch * 100000.0;
        for (int i = 0; i < 4 + epoch; ++i) {
            Tick t = base + i * 1000.0;
            continuous.accessCost(dev, t, 1);
            continuous.push(i);
            fresh.accessCost(dev, t, 1);
            fresh.push(i);
        }
        int out;
        continuous.accessCost(dev, base + 50000.0, 1);
        continuous.pop(out);
        fresh.accessCost(dev, base + 50000.0, 1);
        fresh.pop(out);

        QueueStats now = continuous.stats();
        QueueStats delta = queueStatsDelta(now, snap);
        snap = now;
        EXPECT_EQ(delta.pushes, fresh.stats().pushes)
            << "epoch " << epoch;
        EXPECT_EQ(delta.pops, fresh.stats().pops) << "epoch " << epoch;
        EXPECT_DOUBLE_EQ(delta.opCycles, fresh.stats().opCycles)
            << "epoch " << epoch;
        EXPECT_DOUBLE_EQ(delta.contentionCycles,
                         fresh.stats().contentionCycles)
            << "epoch " << epoch;
    }
}

TEST(QueueEpochStats, ResetStatsRebaselinesTheDepthEwma)
{
    // resetStats() on a non-empty queue must re-baseline the EWMA to
    // the surviving depth, not zero it — zero would feed the adaptive
    // controller a phantom under-load signal on engine reuse.
    WorkQueue<int> q("q");
    q.enableDepthEwma(0.5);
    for (int i = 0; i < 6; ++i)
        q.push(i);
    ASSERT_GT(q.depthEwma(), 0.0);
    q.resetStats();
    EXPECT_DOUBLE_EQ(q.depthEwma(), 6.0);
    EXPECT_EQ(q.stats().pushes, 0u);
}

// ------------------- golden streaming corpus -------------------- //

TEST(Serving, GoldenStreamingReport)
{
    // Byte-exact serving report: the full JSON document of a fixed
    // serving scenario. Regenerate with GOLDEN_REGEN=1 (see
    // scripts/regen_golden.sh) and review the diff.
    ServeConfig sc = openLoopConfig();
    sc.tenants[0].sloP50Cycles = 50000.0;
    sc.tenants[1].sloP99Cycles = 80000.0;
    ServeLinearApp app(2, 8);
    Engine engine(DeviceConfig::byName("gtx1080"));
    ServingEngine serve(engine, sc);
    FlowServingWorkload wl(app);
    RunResult r = serve.run(wl, makeMegakernelConfig(app.pipeline()));
    ASSERT_TRUE(r.completed) << r.failureReason;

    std::ostringstream got;
    writeReportJson(got, r);
    const std::string path =
        std::string(GOLDEN_DIR) + "/serving.json";

    if (std::getenv("GOLDEN_REGEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << got.str();
        SUCCEED() << "regenerated " << path;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << path << " is missing; run scripts/regen_golden.sh";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got.str(), want.str())
        << "the serving report diverged from its golden corpus "
        << "entry. If the change is intentional, run "
        << "scripts/regen_golden.sh and commit the diff.";
}
