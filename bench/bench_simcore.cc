/**
 * @file
 * Simulation-core throughput benchmark: host-side events/sec of the
 * event engine (synthetic schedule/dispatch/cancel mixes and the
 * Fig. 11 applications end-to-end) and auto-tuner wall clock, serial
 * vs. multi-threaded sweep. Writes BENCH_simcore.json next to the
 * working directory for trend tracking.
 *
 * These numbers measure the simulator itself (host wall time), not
 * the modeled GPU: on the end-to-end rows the stage payloads (image
 * filters, rasterization...) run on the host inside stage execution,
 * so engine improvements show up strongest on the synthetic rows and
 * on queue/poll-heavy configurations.
 *
 * Usage: bench_simcore [--smoke]
 *   --smoke   cut the workloads to run in a couple of seconds (used
 *             by the bench_smoke ctest entry).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "apps/vidstream/vidstream_app.hh"
#include "bench_util.hh"
#include "core/engine.hh"
#include "core/versapipe.hh"
#include "serve/serving_engine.hh"
#include "sim/simulator.hh"
#include "tuner/offline_tuner.hh"

namespace {

using namespace vp;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Mean of the host seconds @p timedRun returns per call. Calls it at
 * least @p minReps times and until the calls add up to 20 ms, so a
 * millisecond-scale row rides out one scheduler hiccup instead of
 * tripping the 10x guard of scripts/bench_compare.py.
 */
template <typename Fn>
double
secondsPerRepeat(int minReps, Fn&& timedRun)
{
    double total = 0.0;
    int n = 0;
    while (n < minReps || total < 0.02) {
        total += timedRun();
        ++n;
    }
    return total / n;
}

struct Row
{
    std::string name;
    double seconds = 0.0;
    double eventsPerSec = 0.0;
    std::uint64_t events = 0;
};

/** Self-rescheduling chain: pure schedule + dispatch. */
struct Chain
{
    Simulator* sim;
    std::uint64_t* budget;
    int id;

    void
    step()
    {
        if (*budget == 0)
            return;
        --*budget;
        sim->after(1.0 + (id & 7), [this] { step(); });
    }
};

/** Cancel + reschedule per event, like Sm::reschedule. */
struct ReschedChain
{
    Simulator* sim;
    std::uint64_t* budget;
    EventHandle pending;
    int id;

    void
    step()
    {
        if (*budget == 0)
            return;
        --*budget;
        sim->cancel(pending);
        pending = sim->after(2.0 + (id & 3), [this] { step(); });
        sim->after(1.0, [this] { step(); });
    }
};

Row
benchChain(std::uint64_t events)
{
    Simulator sim;
    std::uint64_t budget = events;
    std::vector<Chain> chains(256);
    for (int i = 0; i < 256; ++i) {
        chains[i] = Chain{&sim, &budget, i};
        sim.after(1.0 + (i & 7), [c = &chains[i]] { c->step(); });
    }
    auto t0 = Clock::now();
    sim.run();
    Row r;
    r.name = "engine/chain";
    r.seconds = secondsSince(t0);
    r.events = sim.eventsRun();
    r.eventsPerSec = r.events / r.seconds;
    return r;
}

Row
benchResched(std::uint64_t events)
{
    Simulator sim;
    std::uint64_t budget = events;
    std::vector<ReschedChain> chains(128);
    for (int i = 0; i < 128; ++i) {
        chains[i] = ReschedChain{&sim, &budget, EventHandle{}, i};
        sim.after(1.0, [c = &chains[i]] { c->step(); });
    }
    auto t0 = Clock::now();
    sim.run();
    Row r;
    r.name = "engine/resched";
    r.seconds = secondsSince(t0);
    r.events = sim.eventsRun();
    r.eventsPerSec = r.events / r.seconds;
    return r;
}

/**
 * End-to-end events/sec of one app under the Megakernel model: the
 * seconds and events of one Engine::run (set-up, seeding, the event
 * loop and verification), over at least @p reps runs. App
 * construction stays outside the timed region.
 */
Row
benchApp(const std::string& app, AppScale scale, int reps)
{
    auto driver = makeApp(app, scale);
    Engine engine(DeviceConfig::k20c());
    PipelineConfig config = makeMegakernelConfig(driver->pipeline());

    Row r;
    r.name = "app/" + app;
    r.seconds = secondsPerRepeat(reps, [&] {
        auto t0 = Clock::now();
        r.events = engine.run(*driver, config).simEvents;
        return secondsSince(t0);
    });
    r.eventsPerSec = r.events / r.seconds;
    return r;
}

struct FaultModeRow
{
    std::string app;
    std::uint64_t events = 0;
    double plainSeconds = 0.0;
    double disabledSeconds = 0.0;
    /** disabled/plain wall ratio (1.0 = injection is free). */
    double ratio = 0.0;
    bool eventsMatch = false;
};

/**
 * Seconds per run of @p app under the Megakernel model on @p engine
 * (secondsPerRepeat over one driver); @p last receives the last run.
 */
double
timeMegakernel(const Engine& engine, const std::string& app,
               RunResult& last)
{
    auto driver = makeApp(app, AppScale::Small);
    PipelineConfig cfg = makeMegakernelConfig(driver->pipeline());
    return secondsPerRepeat(1, [&] {
        auto t0 = Clock::now();
        last = engine.run(*driver, cfg);
        return secondsSince(t0);
    });
}

/**
 * Overhead of the fault-injection layer when it is compiled in but
 * the plan injects nothing: no fault branch of the batch path may
 * run, and the event trace must be bit-identical. Wall time is the
 * min over interleaved reps (robust against CPU drift) of the time
 * per run; the event counts must match exactly.
 */
FaultModeRow
benchFaultMode(const std::string& app, int reps)
{
    Engine plain(DeviceConfig::k20c());
    Engine armed(DeviceConfig::k20c());
    armed.setFaultPlan(FaultPlan{}); // nothing enabled

    FaultModeRow row;
    row.app = app;
    row.plainSeconds = 1e30;
    row.disabledSeconds = 1e30;
    RunResult plainRun, disabledRun;
    for (int i = 0; i < reps; ++i) {
        row.plainSeconds = std::min(row.plainSeconds,
                                    timeMegakernel(plain, app, plainRun));
        row.disabledSeconds = std::min(
            row.disabledSeconds, timeMegakernel(armed, app, disabledRun));
    }
    row.events = plainRun.simEvents;
    row.eventsMatch = plainRun.simEvents == disabledRun.simEvents;
    row.ratio = row.disabledSeconds / row.plainSeconds;
    return row;
}

struct ObsModeRow
{
    std::string app;
    std::uint64_t events = 0;
    double plainSeconds = 0.0;
    double disabledSeconds = 0.0;
    /** disabled/plain wall ratio (1.0 = tracing-off is free). */
    double ratio = 0.0;
    bool eventsMatch = false;
};

/**
 * Overhead of the observability layer when it is armed but inert
 * (tracing disabled, sampling off): every hook collapses to a null
 * tracer check, and the run must produce a bit-identical event
 * trace. Same methodology as benchFaultMode: min wall time over
 * interleaved reps, exact event-count comparison.
 */
ObsModeRow
benchObsMode(const std::string& app, int reps)
{
    Engine plain(DeviceConfig::k20c());
    Engine armed(DeviceConfig::k20c());
    ObsConfig oc;
    oc.trace = false;
    oc.sampleIntervalCycles = 0.0;
    armed.setObservability(oc);

    ObsModeRow row;
    row.app = app;
    row.plainSeconds = 1e30;
    row.disabledSeconds = 1e30;
    RunResult plainRun, disabledRun;
    for (int i = 0; i < reps; ++i) {
        row.plainSeconds = std::min(row.plainSeconds,
                                    timeMegakernel(plain, app, plainRun));
        row.disabledSeconds = std::min(
            row.disabledSeconds, timeMegakernel(armed, app, disabledRun));
    }
    row.events = plainRun.simEvents;
    row.eventsMatch = plainRun.simEvents == disabledRun.simEvents;
    row.ratio = row.disabledSeconds / row.plainSeconds;
    return row;
}

struct ProvRow
{
    std::string app;
    std::uint64_t events = 0;
    double plainSeconds = 0.0;
    double armedSeconds = 0.0;
    /** armed/plain wall ratio (tracking is host-side bookkeeping). */
    double ratio = 0.0;
    bool eventsMatch = false;
    bool cyclesMatch = false;
    std::uint64_t itemsTracked = 0;
};

/**
 * Overhead of per-item provenance tracking when armed (every seed
 * tracked, tracing off). Recording is passive — the armed run must
 * reproduce the plain run's event count and cycle count exactly; the
 * wall cost of the host-side lineage bookkeeping is budgeted at 5%.
 */
ProvRow
benchProvenance(const std::string& app, int reps)
{
    Engine plain(DeviceConfig::k20c());
    Engine armed(DeviceConfig::k20c());
    ObsConfig oc;
    oc.trace = false;
    oc.sampleIntervalCycles = 0.0;
    oc.provenance = true;
    armed.setObservability(oc);

    ProvRow row;
    row.app = app;
    row.plainSeconds = 1e30;
    row.armedSeconds = 1e30;
    RunResult plainRun, armedRun;
    for (int i = 0; i < reps; ++i) {
        row.plainSeconds = std::min(row.plainSeconds,
                                    timeMegakernel(plain, app, plainRun));
        row.armedSeconds = std::min(row.armedSeconds,
                                    timeMegakernel(armed, app, armedRun));
    }
    row.itemsTracked = armedRun.obs->provenance->records().size();
    row.events = plainRun.simEvents;
    row.eventsMatch = plainRun.simEvents == armedRun.simEvents;
    row.cyclesMatch = plainRun.cycles == armedRun.cycles;
    row.ratio = row.armedSeconds / row.plainSeconds;
    return row;
}

struct ShardRow
{
    std::string app;
    /** Simulated cycles, one device vs. the 2-device group. */
    double singleCycles = 0.0;
    double groupCycles = 0.0;
    double speedup = 0.0;
    double seconds = 0.0;
    std::uint64_t events = 0;
    std::uint64_t transfers = 0;
    /** Per-stage item totals match the single-device run. */
    bool conserved = false;
    /** A rerun of the group reproduces cycles and event count. */
    bool deterministic = false;
};

/**
 * Multi-device sharding: the same app under the same Megakernel
 * configuration on one GTX 1080 and on a 2x GTX 1080 group with the
 * replicate plan. Reports the simulated-time speedup, checks exact
 * work conservation against the single-device run, and reruns the
 * group to confirm bit-identical determinism. Host wall time per
 * group run is also recorded (the simulator carries two devices'
 * events in one heap).
 */
ShardRow
benchShard(const std::string& app, AppScale scale)
{
    DeviceConfig dev = DeviceConfig::byName("gtx1080");
    auto stageItems = [](const RunResult& r) {
        std::vector<std::uint64_t> v;
        for (const auto& s : r.stages)
            v.push_back(s.items + s.deadLettered);
        return v;
    };

    ShardRow row;
    row.app = app;

    auto driver = makeApp(app, scale);
    PipelineConfig cfg = makeMegakernelConfig(driver->pipeline());
    ShardPlan plan = ShardPlan::replicateAll(driver->pipeline());

    Engine single(dev);
    RunResult r1 = single.run(*driver, cfg);

    Engine group(DeviceGroupConfig::homogeneous(dev, 2));
    RunResult r2;
    row.seconds = secondsPerRepeat(1, [&] {
        auto t0 = Clock::now();
        r2 = group.runSharded(*driver, cfg, plan);
        return secondsSince(t0);
    });
    RunResult r3 = group.runSharded(*driver, cfg, plan);

    row.singleCycles = r1.cycles;
    row.groupCycles = r2.cycles;
    row.speedup = r2.cycles > 0.0 ? r1.cycles / r2.cycles : 0.0;
    row.events = r2.simEvents;
    row.transfers = r2.interconnect.transfers;
    row.conserved = r1.completed && r2.completed
        && stageItems(r1) == stageItems(r2);
    row.deterministic = r2.cycles == r3.cycles
        && r2.simEvents == r3.simEvents
        && stageItems(r2) == stageItems(r3);
    return row;
}

struct TunerRow
{
    std::string app;
    int threads = 0;
    double seconds = 0.0;
    double bestCycles = 0.0;
    int timedOut = 0;
    std::vector<std::pair<std::string, double>> finished;
};

TunerRow
tunerRow(const std::string& app, int threads, double seconds,
         TunerResult r)
{
    TunerRow row;
    row.app = app;
    row.threads = threads;
    row.seconds = seconds;
    row.bestCycles = r.bestRun.cycles;
    row.timedOut = r.timedOut;
    row.finished = std::move(r.finished);
    return row;
}

TunerRow
benchTunerSerial(const std::string& app)
{
    Engine engine(DeviceConfig::k20c());
    auto driver = makeApp(app, AppScale::Small);
    auto t0 = Clock::now();
    TunerResult r = autotune(engine, *driver);
    return tunerRow(app, 1, secondsSince(t0), std::move(r));
}

// ---------------------------------------------------------------- //
// Adaptive load-balance controller                                 //
// ---------------------------------------------------------------- //

/** Item of the two-phase pipeline below. */
struct PhaseItem
{
    int v = 0;
    /** 0 = front-heavy phase, 1 = back-heavy phase. */
    int phase = 0;
};

struct PhaseBack;

/**
 * Front half of a deliberately phase-skewed two-stage fine pipeline:
 * expensive during phase 0, cheap during phase 1 (PhaseBack is the
 * mirror image). Seeding all phase-0 items before the phase-1 items
 * moves the bottleneck from front to back midway through the run —
 * the situation a static block partition cannot serve well.
 */
struct PhaseFront : Stage<PhaseItem>
{
    double heavyInsts = 3000.0;
    double lightInsts = 300.0;

    PhaseFront()
    {
        name = "front";
        resources.regsPerThread = 32;
        resources.codeBytes = 4000;
        blockThreads = 32; // small batches keep queue depths live
        retryable = true;
    }

    TaskCost
    cost(const PhaseItem& it) const override
    {
        TaskCost c;
        c.computeInsts = it.phase == 0 ? heavyInsts : lightInsts;
        c.memInsts = 20;
        return c;
    }

    void execute(ExecContext& ctx, PhaseItem& it) override;
};

/** Back half: cheap during phase 0, expensive during phase 1. */
struct PhaseBack : Stage<PhaseItem>
{
    double heavyInsts = 3000.0;
    double lightInsts = 300.0;

    PhaseBack()
    {
        name = "back";
        resources.regsPerThread = 32;
        resources.codeBytes = 4000;
        blockThreads = 32;
    }

    TaskCost
    cost(const PhaseItem& it) const override
    {
        TaskCost c;
        c.computeInsts = it.phase == 0 ? lightInsts : heavyInsts;
        c.memInsts = 20;
        return c;
    }

    void
    execute(ExecContext&, PhaseItem&) override
    {
        ++done;
    }

    void reset() override { done = 0; }

    int done = 0;
};

inline void
PhaseFront::execute(ExecContext& ctx, PhaseItem& it)
{
    ctx.enqueue<PhaseBack>(it);
}

/** Two-phase workload; balanced = both phases cost the same. */
class PhaseApp : public AppDriver
{
  public:
    explicit PhaseApp(int perPhase, bool balanced)
        : perPhase_(perPhase)
    {
        pipe_.addStage<PhaseFront>();
        pipe_.addStage<PhaseBack>();
        pipe_.link<PhaseFront, PhaseBack>();
        if (balanced) {
            double mid = 1650.0;
            auto& f = pipe_.stageAs<PhaseFront>();
            auto& b = pipe_.stageAs<PhaseBack>();
            f.heavyInsts = f.lightInsts = mid;
            b.heavyInsts = b.lightInsts = mid;
        }
    }

    std::string name() const override { return "phase-skew"; }

    Pipeline& pipeline() override { return pipe_; }

    void reset() override {}

    void
    seedFlow(Seeder& seeder, int) override
    {
        std::vector<PhaseItem> items;
        for (int p = 0; p < 2; ++p)
            for (int i = 0; i < perPhase_; ++i)
                items.push_back(PhaseItem{i, p});
        seeder.insert<PhaseFront>(std::move(items));
    }

    double inputBytes() const override { return 1 << 14; }

    bool
    verify() override
    {
        return pipe_.stageAs<PhaseBack>().done == 2 * perPhase_;
    }

  private:
    Pipeline pipe_;
    int perPhase_;
};

/**
 * Fine two-stage configuration with an explicit block split, bound
 * to one SM so the block budget — not raw SM count — is the scarce
 * resource the controller trades.
 */
PipelineConfig
fineSplit(int frontBlocks, int backBlocks)
{
    StageGroup g;
    g.stages = {0, 1};
    g.model = ExecModel::FinePipeline;
    g.sms = {0};
    g.blocksPerSm[0] = frontBlocks;
    g.blocksPerSm[1] = backBlocks;
    PipelineConfig cfg;
    cfg.groups = {g};
    return cfg;
}

struct AdaptiveRow
{
    /** Skewed workload: phase-0-tuned static vs adaptive from the
     *  same initial partition. */
    double staticCycles = 0.0;
    double adaptiveCycles = 0.0;
    double gain = 0.0; //!< staticCycles / adaptiveCycles
    double moves = 0.0;
    /** Balanced workload: best static split vs adaptive. */
    double balancedStaticCycles = 0.0;
    double balancedAdaptiveCycles = 0.0;
    double balancedRatio = 0.0; //!< adaptive / best static
    /** Two adaptive runs are bit-identical. */
    bool deterministic = false;
    /** A disabled AdaptiveConfig leaves the event trace untouched. */
    bool disabledIdentical = false;
    std::uint64_t events = 0;
    double plainSeconds = 0.0;
    double disabledSeconds = 0.0;
    double disabledRatio = 0.0;
};

/**
 * The online load-balance controller on a workload whose bottleneck
 * moves mid-run: front-heavy for the first half of the items,
 * back-heavy for the second. The static partition is the one an
 * offline tuner would pick for phase 0 (front-weighted); the
 * controller starts from the same partition and must rebalance.
 * Also measures the disabled-config overhead with the interleaved
 * min-wall methodology of benchFaultMode.
 */
AdaptiveRow
benchAdaptive(bool smoke)
{
    DeviceConfig dev = DeviceConfig::k20c();
    int perPhase = smoke ? 1500 : 6000;
    AdaptiveConfig ac;
    ac.enabled = true;
    ac.epochCycles = 25000.0;
    ac.hysteresis = 0.25;
    ac.minDwellEpochs = 1;

    AdaptiveRow row;

    // Skewed: static phase-0 partition vs adaptive from the same.
    PipelineConfig wrongPhase = fineSplit(6, 2);
    {
        PhaseApp app(perPhase, false);
        Engine eng(dev);
        row.staticCycles = eng.run(app, wrongPhase).cycles;

        eng.setAdaptive(ac);
        RunResult a1 = eng.run(app, wrongPhase);
        RunResult a2 = eng.run(app, wrongPhase);
        row.adaptiveCycles = a1.cycles;
        row.moves = a1.extra.get("adaptiveMoves");
        row.gain = a1.cycles > 0.0
            ? row.staticCycles / a1.cycles
            : 0.0;
        row.deterministic = a1.cycles == a2.cycles
            && a1.simEvents == a2.simEvents;
    }

    // Balanced: the controller should not lose to the best static
    // split when there is nothing to fix.
    {
        PhaseApp app(perPhase, true);
        Engine eng(dev);
        row.balancedStaticCycles =
            std::numeric_limits<double>::infinity();
        for (int front = 3; front <= 5; ++front) {
            double c =
                eng.run(app, fineSplit(front, 8 - front)).cycles;
            row.balancedStaticCycles =
                std::min(row.balancedStaticCycles, c);
        }
        eng.setAdaptive(ac);
        row.balancedAdaptiveCycles =
            eng.run(app, fineSplit(4, 4)).cycles;
        row.balancedRatio = row.balancedAdaptiveCycles
            / row.balancedStaticCycles;
    }

    // Disabled-config overhead: armed-but-disabled must take the
    // untouched fast path (bit-identical events, wall ratio ~1).
    {
        Engine plain(dev);
        Engine armed(dev);
        armed.setAdaptive(AdaptiveConfig{}); // disabled
        row.plainSeconds = 1e30;
        row.disabledSeconds = 1e30;
        std::uint64_t plainEvents = 0, disabledEvents = 0;
        int reps = smoke ? 3 : 10;
        for (int i = 0; i < reps; ++i) {
            {
                PhaseApp app(perPhase, false);
                auto t0 = Clock::now();
                RunResult r = plain.run(app, wrongPhase);
                row.plainSeconds =
                    std::min(row.plainSeconds, secondsSince(t0));
                plainEvents = r.simEvents;
            }
            {
                PhaseApp app(perPhase, false);
                auto t0 = Clock::now();
                RunResult r = armed.run(app, wrongPhase);
                row.disabledSeconds =
                    std::min(row.disabledSeconds, secondsSince(t0));
                disabledEvents = r.simEvents;
            }
        }
        row.events = plainEvents;
        row.disabledIdentical = plainEvents == disabledEvents;
        row.disabledRatio = row.disabledSeconds / row.plainSeconds;
    }
    return row;
}

struct ServingRow
{
    std::string app;
    std::uint64_t epochs = 0;
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    std::uint64_t outstanding = 0;
    /** Simulated end-to-end time of the serving run. */
    double cycles = 0.0;
    std::uint64_t events = 0;
    /** Completed requests per million simulated cycles. */
    double throughputPerMCycle = 0.0;
    /** Host wall time of the serving run and the wall-relative
     *  request rate it sustained. */
    double seconds = 0.0;
    double requestsPerSec = 0.0;
    std::vector<TenantServeStats> tenants;
    /** offered == admitted + shed and admitted == completed +
     *  outstanding, per tenant and in total. */
    bool conserved = false;
    /** A rerun reproduces cycles, events and every serving stat. */
    bool deterministic = false;
    /** ServingEngine with a disabled ServeConfig produces an event-
     *  and cycle-identical run to a plain engine. */
    bool disabledIdentical = false;
};

/**
 * Pipeline-as-a-service: a fixed offered load (three open-loop
 * tenants at different priorities and token-bucket quotas, the
 * lowest deliberately over its quota so shedding is exercised)
 * served by the pyramid app under the Megakernel model — request k
 * seeds image flow k mod images. Reports sustained throughput and
 * per-tenant p99, and gates the serving layer's core contracts:
 * per-tenant conservation, bit-identical reruns, and the disabled
 * config degenerating to the plain one-shot run.
 */
ServingRow
benchServing(const std::string& app, bool smoke)
{
    DeviceConfig dev = DeviceConfig::byName("gtx1080");

    ServeConfig sc;
    sc.seed = 2026;
    sc.epochCycles = 5000.0;
    sc.horizonCycles = smoke ? 150000.0 : 600000.0;
    sc.overload = OverloadPolicy::Shed;
    auto tenant = [](const char* name, int prio, double rate,
                     double burst, double mean) {
        TenantConfig t;
        t.name = name;
        t.priority = prio;
        t.tokensPerCycle = rate;
        t.burstTokens = burst;
        ClientConfig c;
        c.kind = ArrivalKind::OpenLoop;
        c.meanInterarrivalCycles = mean;
        t.clients.push_back(c);
        return t;
    };
    sc.tenants.push_back(tenant("gold", 2, 0.004, 8.0, 12000.0));
    sc.tenants.push_back(tenant("silver", 1, 0.002, 4.0, 15000.0));
    // Bronze offers ~1 request / 9k cycles against a 1 / 20k-cycle
    // quota: the token bucket must shed the excess.
    sc.tenants.push_back(tenant("bronze", 0, 0.00005, 1.0, 9000.0));

    auto serveOnce = [&](double* secs) {
        auto driver = makeApp(app, AppScale::Small);
        FlowServingWorkload wl(*driver);
        Engine eng(dev);
        ServingEngine serve(eng, sc);
        auto t0 = Clock::now();
        RunResult r =
            serve.run(wl, makeMegakernelConfig(driver->pipeline()));
        if (secs)
            *secs = secondsSince(t0);
        return r;
    };

    ServingRow row;
    row.app = app;
    RunResult r1 = serveOnce(&row.seconds);
    RunResult r2 = serveOnce(nullptr);

    const ServingRunStats& s = *r1.serving;
    row.epochs = s.epochs;
    row.offered = s.offered;
    row.admitted = s.admitted;
    row.shed = s.shed;
    row.completed = s.completed;
    row.outstanding = s.outstanding;
    row.cycles = r1.cycles;
    row.events = r1.simEvents;
    row.throughputPerMCycle = s.throughputPerMCycle;
    row.requestsPerSec = row.seconds > 0.0
        ? static_cast<double>(s.completed) / row.seconds
        : 0.0;
    row.tenants = s.tenants;

    row.conserved = s.offered == s.admitted + s.shed
        && s.admitted == s.completed + s.outstanding;
    for (const TenantServeStats& t : s.tenants)
        row.conserved = row.conserved
            && t.offered == t.admitted + t.shed
            && t.admitted == t.completed + t.outstanding;

    auto tenantsEqual = [](const std::vector<TenantServeStats>& a,
                           const std::vector<TenantServeStats>& b) {
        if (a.size() != b.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i)
            if (a[i].offered != b[i].offered
                || a[i].admitted != b[i].admitted
                || a[i].shed != b[i].shed
                || a[i].completed != b[i].completed
                || a[i].p50Cycles != b[i].p50Cycles
                || a[i].p99Cycles != b[i].p99Cycles)
                return false;
        return true;
    };
    row.deterministic = r1.cycles == r2.cycles
        && r1.simEvents == r2.simEvents && r2.serving
        && s.offered == r2.serving->offered
        && s.completed == r2.serving->completed
        && tenantsEqual(s.tenants, r2.serving->tenants);

    // Disabled parity: a default ServeConfig run must be the plain
    // one-shot run, event for event.
    {
        auto d1 = makeApp(app, AppScale::Small);
        Engine plain(dev);
        RunResult a = plain.run(*d1,
                                makeMegakernelConfig(d1->pipeline()));
        auto d2 = makeApp(app, AppScale::Small);
        FlowServingWorkload wl(*d2);
        Engine eng(dev);
        ServingEngine off(eng, ServeConfig{});
        RunResult b =
            off.run(wl, makeMegakernelConfig(d2->pipeline()));
        row.disabledIdentical = a.simEvents == b.simEvents
            && a.cycles == b.cycles && !b.serving;
    }
    return row;
}

struct VidstreamRow
{
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    /** Frames fully processed (one request = one frame). */
    std::uint64_t frames = 0;
    double cycles = 0.0;
    std::uint64_t events = 0;
    /** Sustained frame rate in simulated time (frames/Mcycle). */
    double framesPerMCycle = 0.0;
    /** Host wall time per serve and the wall-relative frame rate. */
    double seconds = 0.0;
    double framesPerSec = 0.0;
    /** Per-frame deadline verdicts over all cameras. */
    std::uint64_t deadlineMisses = 0;
    double deadlineHitRate = 1.0;
    std::vector<TenantServeStats> tenants;
    bool conserved = false;
    /** Rerun reproduces cycles, events and deadline accounting. */
    bool deterministic = false;
};

/**
 * Streaming video analytics: the vidstream app under the serving
 * layer, one open-loop tenant per camera issuing frames on a frame
 * clock, every tenant carrying the same per-frame deadline. Reports
 * sustained FPS (simulated and wall-relative) and the per-frame
 * deadline hit-rate, and gates conservation plus bit-identical
 * reruns of the full deadline accounting.
 */
VidstreamRow
benchVidstream(bool smoke)
{
    DeviceConfig dev = DeviceConfig::byName("gtx1080");
    vidstream::VsParams p = vidstream::VsParams::small();

    ServeConfig sc;
    sc.seed = 20260808;
    sc.epochCycles = 4000.0;
    sc.horizonCycles = smoke ? 400000.0 : 1600000.0;
    for (int cam = 0; cam < p.cameras; ++cam) {
        TenantConfig tc;
        tc.name = "cam" + std::to_string(cam);
        tc.tokensPerCycle = 0.001;
        tc.burstTokens = 4.0;
        tc.deadlineCycles = 60000.0; // the per-frame budget
        ClientConfig cl;
        cl.kind = ArrivalKind::OpenLoop;
        cl.meanInterarrivalCycles = 40000.0; // the frame clock
        tc.clients.push_back(cl);
        sc.tenants.push_back(tc);
    }

    // A fresh app, workload and engine per serve; only the serve
    // itself is timed.
    auto serveOnce = [&](RunResult& out) {
        vidstream::VidstreamApp app(p);
        vidstream::VsFrameWorkload wl(app);
        Engine eng(dev);
        ServingEngine serve(eng, sc);
        auto t0 = Clock::now();
        out = serve.run(wl, makeMegakernelConfig(app.pipeline()));
        return secondsSince(t0);
    };

    VidstreamRow row;
    RunResult r1, r2;
    row.seconds = secondsPerRepeat(1, [&] { return serveOnce(r1); });
    serveOnce(r2);

    const ServingRunStats& s = *r1.serving;
    row.offered = s.offered;
    row.admitted = s.admitted;
    row.shed = s.shed;
    row.frames = s.completed;
    row.cycles = r1.cycles;
    row.events = r1.simEvents;
    row.framesPerMCycle = s.throughputPerMCycle;
    row.framesPerSec = row.seconds > 0.0
        ? static_cast<double>(s.completed) / row.seconds
        : 0.0;
    row.deadlineMisses = s.deadlineMisses;
    row.deadlineHitRate = s.deadlineHitRate;
    row.tenants = s.tenants;

    row.conserved = s.offered == s.admitted + s.shed
        && s.admitted == s.completed + s.outstanding;
    for (const TenantServeStats& t : s.tenants)
        row.conserved = row.conserved
            && t.offered == t.admitted + t.shed
            && t.admitted == t.completed + t.outstanding;

    row.deterministic = r1.cycles == r2.cycles
        && r1.simEvents == r2.simEvents && r2.serving
        && s.completed == r2.serving->completed
        && s.deadlineMisses == r2.serving->deadlineMisses
        && s.deadlineHitRate == r2.serving->deadlineHitRate;
    if (row.deterministic)
        for (std::size_t i = 0; i < s.tenants.size(); ++i)
            row.deterministic = row.deterministic
                && s.tenants[i].deadlineMisses
                    == r2.serving->tenants[i].deadlineMisses
                && s.tenants[i].p99Cycles
                    == r2.serving->tenants[i].p99Cycles;
    return row;
}

TunerRow
benchTunerParallel(const std::string& app, int threads)
{
    TunerOptions opts;
    opts.threads = threads;
    auto t0 = Clock::now();
    TunerResult r = autotuneParallel(
        DeviceConfig::k20c(),
        [&app] { return makeApp(app, AppScale::Small); }, opts);
    return tunerRow(app, threads, secondsSince(t0), std::move(r));
}

} // namespace

int
main(int argc, char** argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    const std::uint64_t engineEvents = smoke ? 200000 : 8000000;
    const int reps = smoke ? 1 : 5;

    std::vector<Row> rows;
    rows.push_back(benchChain(engineEvents));
    rows.push_back(benchResched(engineEvents));
    rows.push_back(benchApp("pyramid", AppScale::Small, reps));
    if (!smoke) {
        rows.push_back(benchApp("raster", AppScale::Full, reps));
        rows.push_back(benchApp("reyes", AppScale::Full, reps));
        rows.push_back(benchApp("ldpc", AppScale::Full, reps));
    }

    vp::bench::header("simulation-core throughput");
    for (const Row& r : rows)
        std::printf("  %-16s %10llu events  %8.3fs  %8.3fM ev/s\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.events),
                    r.seconds, r.eventsPerSec / 1e6);

    vp::bench::header("fault-injection overhead (pyramid, small)");
    FaultModeRow fm = benchFaultMode("pyramid", smoke ? 3 : 20);
    std::printf("  plain             %8.3fms\n"
                "  disabled plan     %8.3fms  ratio=%.4f  "
                "events %s\n",
                fm.plainSeconds * 1e3, fm.disabledSeconds * 1e3,
                fm.ratio, fm.eventsMatch ? "identical" : "DIVERGED");
    if (!fm.eventsMatch) {
        std::fprintf(stderr,
                     "ERROR: disabled fault plan changed the event "
                     "trace\n");
        return 1;
    }
    if (!smoke && fm.ratio >= 1.02) {
        std::fprintf(stderr,
                     "ERROR: disabled fault injection costs %.1f%% "
                     "(budget: <2%%)\n",
                     (fm.ratio - 1.0) * 100.0);
        return 1;
    }

    vp::bench::header("observability overhead (pyramid, small)");
    ObsModeRow om = benchObsMode("pyramid", smoke ? 3 : 20);
    std::printf("  plain             %8.3fms\n"
                "  tracing disabled  %8.3fms  ratio=%.4f  "
                "events %s\n",
                om.plainSeconds * 1e3, om.disabledSeconds * 1e3,
                om.ratio, om.eventsMatch ? "identical" : "DIVERGED");
    if (!om.eventsMatch) {
        std::fprintf(stderr,
                     "ERROR: disabled tracing changed the event "
                     "trace\n");
        return 1;
    }
    if (!smoke && om.ratio >= 1.02) {
        std::fprintf(stderr,
                     "ERROR: disabled tracing costs %.1f%% "
                     "(budget: <2%%)\n",
                     (om.ratio - 1.0) * 100.0);
        return 1;
    }

    vp::bench::header("provenance overhead (pyramid, small)");
    ProvRow pr = benchProvenance("pyramid", smoke ? 3 : 20);
    std::printf("  plain             %8.3fms\n"
                "  provenance armed  %8.3fms  ratio=%.4f  "
                "events %s  cycles %s  items=%llu\n",
                pr.plainSeconds * 1e3, pr.armedSeconds * 1e3,
                pr.ratio, pr.eventsMatch ? "identical" : "DIVERGED",
                pr.cyclesMatch ? "identical" : "DIVERGED",
                static_cast<unsigned long long>(pr.itemsTracked));
    if (!pr.eventsMatch || !pr.cyclesMatch) {
        std::fprintf(stderr,
                     "ERROR: armed provenance changed the %s\n",
                     pr.eventsMatch ? "cycle count" : "event trace");
        return 1;
    }
    if (!smoke && pr.ratio >= 1.05) {
        std::fprintf(stderr,
                     "ERROR: armed provenance costs %.1f%% "
                     "(budget: <5%%)\n",
                     (pr.ratio - 1.0) * 100.0);
        return 1;
    }

    vp::bench::header("multi-device sharding (raster, 2x gtx1080)");
    ShardRow sh = benchShard(
        "raster", smoke ? AppScale::Small : AppScale::Full);
    std::printf("  1 device          %12.0f cycles\n"
                "  2 devices         %12.0f cycles  speedup=%.2fx  "
                "%8.3fs host\n"
                "  transfers=%llu  work %s  reruns %s\n",
                sh.singleCycles, sh.groupCycles, sh.speedup,
                sh.seconds,
                static_cast<unsigned long long>(sh.transfers),
                sh.conserved ? "conserved" : "NOT CONSERVED",
                sh.deterministic ? "bit-identical" : "DIVERGED");
    if (!sh.conserved || !sh.deterministic) {
        std::fprintf(stderr,
                     "ERROR: 2-device shard %s\n",
                     sh.conserved ? "rerun diverged"
                                  : "lost or duplicated work");
        return 1;
    }
    if (!smoke && sh.speedup <= 1.0) {
        std::fprintf(stderr,
                     "ERROR: 2 devices slower than 1 (%.2fx) on a "
                     "throughput workload\n",
                     sh.speedup);
        return 1;
    }

    vp::bench::header("adaptive load balancing (phase-skew, fine)");
    AdaptiveRow ad = benchAdaptive(smoke);
    std::printf("  static (wrong)    %12.0f cycles\n"
                "  adaptive          %12.0f cycles  gain=%.2fx  "
                "moves=%.0f  reruns %s\n"
                "  balanced          %12.0f vs best static %.0f  "
                "ratio=%.4f\n"
                "  disabled          ratio=%.4f  events %s\n",
                ad.staticCycles, ad.adaptiveCycles, ad.gain, ad.moves,
                ad.deterministic ? "bit-identical" : "DIVERGED",
                ad.balancedAdaptiveCycles, ad.balancedStaticCycles,
                ad.balancedRatio, ad.disabledRatio,
                ad.disabledIdentical ? "identical" : "DIVERGED");
    if (!ad.disabledIdentical) {
        std::fprintf(stderr,
                     "ERROR: disabled adaptive config changed the "
                     "event trace\n");
        return 1;
    }
    if (!ad.deterministic) {
        std::fprintf(stderr,
                     "ERROR: adaptive reruns diverged\n");
        return 1;
    }
    if (ad.gain < 1.10) {
        std::fprintf(stderr,
                     "ERROR: adaptive gain %.2fx on the skewed "
                     "workload (budget: >=1.10x)\n",
                     ad.gain);
        return 1;
    }
    if (ad.balancedRatio > 1.02) {
        std::fprintf(stderr,
                     "ERROR: adaptive is %.1f%% behind the best "
                     "static split on a balanced workload "
                     "(budget: <=2%%)\n",
                     (ad.balancedRatio - 1.0) * 100.0);
        return 1;
    }
    if (!smoke && ad.disabledRatio >= 1.02) {
        std::fprintf(stderr,
                     "ERROR: disabled adaptive config costs %.1f%% "
                     "(budget: <2%%)\n",
                     (ad.disabledRatio - 1.0) * 100.0);
        return 1;
    }

    vp::bench::header("serving layer (pyramid, 3 tenants, open loop)");
    ServingRow sv = benchServing("pyramid", smoke);
    std::printf("  %llu epochs  offered=%llu admitted=%llu "
                "shed=%llu completed=%llu\n"
                "  %12.0f cycles  %8.3fs host  %8.1f req/s  "
                "%.2f req/Mcycle\n",
                static_cast<unsigned long long>(sv.epochs),
                static_cast<unsigned long long>(sv.offered),
                static_cast<unsigned long long>(sv.admitted),
                static_cast<unsigned long long>(sv.shed),
                static_cast<unsigned long long>(sv.completed),
                sv.cycles, sv.seconds, sv.requestsPerSec,
                sv.throughputPerMCycle);
    for (const TenantServeStats& t : sv.tenants)
        std::printf("  %-8s offered=%-4llu shed=%-4llu "
                    "p50=%-8.0f p99=%-8.0f cycles\n",
                    t.name.c_str(),
                    static_cast<unsigned long long>(t.offered),
                    static_cast<unsigned long long>(t.shed),
                    t.p50Cycles, t.p99Cycles);
    std::printf("  work %s  reruns %s  disabled config %s\n",
                sv.conserved ? "conserved" : "NOT CONSERVED",
                sv.deterministic ? "bit-identical" : "DIVERGED",
                sv.disabledIdentical ? "identical" : "DIVERGED");
    if (!sv.conserved) {
        std::fprintf(stderr,
                     "ERROR: serving run lost or duplicated "
                     "requests\n");
        return 1;
    }
    if (!sv.deterministic) {
        std::fprintf(stderr, "ERROR: serving reruns diverged\n");
        return 1;
    }
    if (!sv.disabledIdentical) {
        std::fprintf(stderr,
                     "ERROR: disabled ServeConfig changed the event "
                     "trace\n");
        return 1;
    }
    if (sv.shed == 0) {
        std::fprintf(stderr,
                     "ERROR: the over-quota tenant shed nothing — "
                     "admission control is not engaging\n");
        return 1;
    }

    vp::bench::header(
        "streaming video analytics (vidstream, frame deadlines)");
    VidstreamRow vs = benchVidstream(smoke);
    std::printf("  offered=%llu admitted=%llu shed=%llu "
                "frames=%llu\n"
                "  %12.0f cycles  %8.3fs host  %8.1f fps(wall)  "
                "%.2f frames/Mcycle\n"
                "  deadline misses=%llu  hit-rate=%.4f\n",
                static_cast<unsigned long long>(vs.offered),
                static_cast<unsigned long long>(vs.admitted),
                static_cast<unsigned long long>(vs.shed),
                static_cast<unsigned long long>(vs.frames),
                vs.cycles, vs.seconds, vs.framesPerSec,
                vs.framesPerMCycle,
                static_cast<unsigned long long>(vs.deadlineMisses),
                vs.deadlineHitRate);
    for (const TenantServeStats& t : vs.tenants)
        std::printf("  %-8s frames=%-4llu misses=%-4llu "
                    "hit-rate=%.4f  p99=%-8.0f cycles\n",
                    t.name.c_str(),
                    static_cast<unsigned long long>(t.completed),
                    static_cast<unsigned long long>(t.deadlineMisses),
                    t.deadlineHitRate, t.p99Cycles);
    std::printf("  work %s  reruns %s\n",
                vs.conserved ? "conserved" : "NOT CONSERVED",
                vs.deterministic ? "bit-identical" : "DIVERGED");
    if (!vs.conserved) {
        std::fprintf(stderr,
                     "ERROR: vidstream serving lost or duplicated "
                     "frames\n");
        return 1;
    }
    if (!vs.deterministic) {
        std::fprintf(stderr,
                     "ERROR: vidstream deadline accounting diverged "
                     "across reruns\n");
        return 1;
    }
    if (vs.frames == 0) {
        std::fprintf(stderr,
                     "ERROR: vidstream completed no frames\n");
        return 1;
    }

    vp::bench::header("auto-tuner wall clock (pyramid, small)");
    TunerRow serial = benchTunerSerial("pyramid");
    TunerRow par = benchTunerParallel("pyramid", smoke ? 2 : 4);
    std::printf("  serial            %8.3fs  best=%.0f cycles\n",
                serial.seconds, serial.bestCycles);
    std::printf("  %d threads         %8.3fs  best=%.0f cycles  "
                "speedup=%.2fx\n",
                par.threads, par.seconds, par.bestCycles,
                serial.seconds / par.seconds);
    if (serial.bestCycles != par.bestCycles) {
        std::fprintf(stderr,
                     "ERROR: parallel tuner best (%f) != serial "
                     "best (%f)\n",
                     par.bestCycles, serial.bestCycles);
        return 1;
    }
    // Every thread count returns the serial sweep's bookkeeping.
    if (serial.timedOut != par.timedOut
        || serial.finished != par.finished) {
        std::fprintf(stderr,
                     "ERROR: parallel tuner timed out %d and finished "
                     "%zu candidates, serial %d and %zu (or a finished "
                     "candidate differs)\n",
                     par.timedOut, par.finished.size(), serial.timedOut,
                     serial.finished.size());
        return 1;
    }

    std::FILE* json = std::fopen("BENCH_simcore.json", "w");
    if (json) {
        // scripts/bench_compare.py refuses to diff a smoke run
        // against a full baseline (and vice versa), so record which
        // shape this file is.
        std::fprintf(json, "{\n  \"smoke\": %s,\n  \"rows\": [\n",
                     smoke ? "true" : "false");
        for (std::size_t i = 0; i < rows.size(); ++i)
            std::fprintf(
                json,
                "    {\"name\": \"%s\", \"events\": %llu, "
                "\"seconds\": %.6f, \"events_per_sec\": %.1f}%s\n",
                rows[i].name.c_str(),
                static_cast<unsigned long long>(rows[i].events),
                rows[i].seconds, rows[i].eventsPerSec,
                i + 1 < rows.size() ? "," : "");
        std::fprintf(json,
                     "  ],\n  \"fault_mode\": {\"app\": \"%s\", "
                     "\"events\": %llu, \"events_identical\": %s, "
                     "\"plain_seconds\": %.6f, "
                     "\"disabled_seconds\": %.6f, "
                     "\"overhead_ratio\": %.4f},\n",
                     fm.app.c_str(),
                     static_cast<unsigned long long>(fm.events),
                     fm.eventsMatch ? "true" : "false",
                     fm.plainSeconds, fm.disabledSeconds, fm.ratio);
        std::fprintf(json,
                     "  \"obs_mode\": {\"app\": \"%s\", "
                     "\"events\": %llu, \"events_identical\": %s, "
                     "\"plain_seconds\": %.6f, "
                     "\"disabled_seconds\": %.6f, "
                     "\"overhead_ratio\": %.4f},\n",
                     om.app.c_str(),
                     static_cast<unsigned long long>(om.events),
                     om.eventsMatch ? "true" : "false",
                     om.plainSeconds, om.disabledSeconds, om.ratio);
        std::fprintf(json,
                     "  \"provenance\": {\"app\": \"%s\", "
                     "\"events\": %llu, \"events_identical\": %s, "
                     "\"cycles_identical\": %s, "
                     "\"items_tracked\": %llu, "
                     "\"plain_seconds\": %.6f, "
                     "\"armed_seconds\": %.6f, "
                     "\"overhead_ratio\": %.4f},\n",
                     pr.app.c_str(),
                     static_cast<unsigned long long>(pr.events),
                     pr.eventsMatch ? "true" : "false",
                     pr.cyclesMatch ? "true" : "false",
                     static_cast<unsigned long long>(pr.itemsTracked),
                     pr.plainSeconds, pr.armedSeconds, pr.ratio);
        std::fprintf(json,
                     "  \"multi_device\": {\"app\": \"%s\", "
                     "\"devices\": 2, \"plan\": \"replicate\", "
                     "\"single_cycles\": %.1f, "
                     "\"group_cycles\": %.1f, \"speedup\": %.4f, "
                     "\"events\": %llu, \"transfers\": %llu, "
                     "\"group_seconds\": %.6f, "
                     "\"work_conserved\": %s, "
                     "\"reruns_identical\": %s},\n",
                     sh.app.c_str(), sh.singleCycles, sh.groupCycles,
                     sh.speedup,
                     static_cast<unsigned long long>(sh.events),
                     static_cast<unsigned long long>(sh.transfers),
                     sh.seconds, sh.conserved ? "true" : "false",
                     sh.deterministic ? "true" : "false");
        std::fprintf(json,
                     "  \"adaptive\": {\"app\": \"phase-skew\", "
                     "\"static_cycles\": %.1f, "
                     "\"adaptive_cycles\": %.1f, \"gain\": %.4f, "
                     "\"moves\": %.0f, "
                     "\"balanced_static_cycles\": %.1f, "
                     "\"balanced_adaptive_cycles\": %.1f, "
                     "\"balanced_ratio\": %.4f, "
                     "\"reruns_identical\": %s, "
                     "\"disabled_events_identical\": %s, "
                     "\"disabled_overhead_ratio\": %.4f},\n",
                     ad.staticCycles, ad.adaptiveCycles, ad.gain,
                     ad.moves, ad.balancedStaticCycles,
                     ad.balancedAdaptiveCycles, ad.balancedRatio,
                     ad.deterministic ? "true" : "false",
                     ad.disabledIdentical ? "true" : "false",
                     ad.disabledRatio);
        std::fprintf(json,
                     "  \"serving\": {\"app\": \"%s\", "
                     "\"epochs\": %llu, \"offered\": %llu, "
                     "\"admitted\": %llu, \"shed\": %llu, "
                     "\"completed\": %llu, \"outstanding\": %llu, "
                     "\"sim_cycles\": %.1f, \"events\": %llu, "
                     "\"throughput_per_mcycle\": %.4f, "
                     "\"serve_seconds\": %.6f, "
                     "\"requests_per_sec\": %.1f, "
                     "\"work_conserved\": %s, "
                     "\"reruns_identical\": %s, "
                     "\"disabled_events_identical\": %s, "
                     "\"tenants\": [",
                     sv.app.c_str(),
                     static_cast<unsigned long long>(sv.epochs),
                     static_cast<unsigned long long>(sv.offered),
                     static_cast<unsigned long long>(sv.admitted),
                     static_cast<unsigned long long>(sv.shed),
                     static_cast<unsigned long long>(sv.completed),
                     static_cast<unsigned long long>(sv.outstanding),
                     sv.cycles,
                     static_cast<unsigned long long>(sv.events),
                     sv.throughputPerMCycle, sv.seconds,
                     sv.requestsPerSec,
                     sv.conserved ? "true" : "false",
                     sv.deterministic ? "true" : "false",
                     sv.disabledIdentical ? "true" : "false");
        for (std::size_t i = 0; i < sv.tenants.size(); ++i) {
            const TenantServeStats& t = sv.tenants[i];
            std::fprintf(json,
                         "{\"name\": \"%s\", \"offered\": %llu, "
                         "\"admitted\": %llu, \"shed\": %llu, "
                         "\"completed\": %llu, "
                         "\"p50_cycles\": %.2f, "
                         "\"p99_cycles\": %.2f}%s",
                         t.name.c_str(),
                         static_cast<unsigned long long>(t.offered),
                         static_cast<unsigned long long>(t.admitted),
                         static_cast<unsigned long long>(t.shed),
                         static_cast<unsigned long long>(t.completed),
                         t.p50Cycles, t.p99Cycles,
                         i + 1 < sv.tenants.size() ? ", " : "");
        }
        std::fprintf(json, "]},\n");
        std::fprintf(json,
                     "  \"vidstream\": {\"app\": \"vidstream\", "
                     "\"offered\": %llu, \"admitted\": %llu, "
                     "\"shed\": %llu, \"frames\": %llu, "
                     "\"sim_cycles\": %.1f, \"events\": %llu, "
                     "\"frames_per_mcycle\": %.4f, "
                     "\"serve_seconds\": %.6f, "
                     "\"frames_per_sec\": %.1f, "
                     "\"deadline_misses\": %llu, "
                     "\"deadline_hit_rate\": %.6f, "
                     "\"work_conserved\": %s, "
                     "\"reruns_identical\": %s, "
                     "\"tenants\": [",
                     static_cast<unsigned long long>(vs.offered),
                     static_cast<unsigned long long>(vs.admitted),
                     static_cast<unsigned long long>(vs.shed),
                     static_cast<unsigned long long>(vs.frames),
                     vs.cycles,
                     static_cast<unsigned long long>(vs.events),
                     vs.framesPerMCycle, vs.seconds,
                     vs.framesPerSec,
                     static_cast<unsigned long long>(
                         vs.deadlineMisses),
                     vs.deadlineHitRate,
                     vs.conserved ? "true" : "false",
                     vs.deterministic ? "true" : "false");
        for (std::size_t i = 0; i < vs.tenants.size(); ++i) {
            const TenantServeStats& t = vs.tenants[i];
            std::fprintf(
                json,
                "{\"name\": \"%s\", \"frames\": %llu, "
                "\"deadline_misses\": %llu, "
                "\"deadline_hit_rate\": %.6f, "
                "\"p50_cycles\": %.2f, \"p99_cycles\": %.2f}%s",
                t.name.c_str(),
                static_cast<unsigned long long>(t.completed),
                static_cast<unsigned long long>(t.deadlineMisses),
                t.deadlineHitRate, t.p50Cycles, t.p99Cycles,
                i + 1 < vs.tenants.size() ? ", " : "");
        }
        std::fprintf(json, "]},\n");
        std::fprintf(json,
                     "  \"tuner\": {\"app\": \"%s\", "
                     "\"serial_seconds\": %.6f, "
                     "\"parallel_threads\": %d, "
                     "\"parallel_seconds\": %.6f, "
                     "\"best_cycles\": %.1f}\n}\n",
                     serial.app.c_str(), serial.seconds, par.threads,
                     par.seconds, serial.bestCycles);
        std::fclose(json);
        std::printf("\nwrote BENCH_simcore.json\n");
    }
    return 0;
}
