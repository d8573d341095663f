/**
 * @file
 * Diagnostic harness: per-stage breakdown of one application under
 * the baseline, Megakernel and tuned VersaPipe configurations, with
 * optional observability exports (trace / report / time-series).
 *
 * Usage: inspect_app [--device=k20c|gtx1080] [app...]
 *                    [--config=baseline|megakernel|versapipe] [--only]
 *                    [--devices=N] [--shard=replicate|rr|pin:d0,d1,..]
 *                    [--kill-device=<dev>@<cycle>]
 *                    [--fail-link=<src>-><dst>@<cycle>]
 *                    [--adaptive[=epochCycles]]
 *                    [--trace=out.json] [--report=out.report.json]
 *                    [--csv=out.csv] [--sample=N]
 *                    [--latency] [--critical-path[=N]] [--flow]
 *                    [--prov-sample=K]
 *                    [--serve] [--tenants=N] [--rate=R]
 *                    [--epoch=C] [--horizon=C]
 *                    [--overload=shed|queue] [--deadline=C]
 *
 * The provenance flags arm per-item lineage tracking on the
 * instrumented run (docs/MODEL.md, "Item provenance & critical
 * path"). --latency prints the per-stage queue-wait / service
 * decomposition with per-item latency percentiles — the bottleneck
 * attribution table. --critical-path walks the lineage of the
 * last-finishing item and prints the top N (default 10) ranked
 * path segments: stages, queues and interconnect links that the
 * makespan is actually made of. --flow adds Perfetto flow arrows
 * linking each item's producing batch to its consuming batch in the
 * --trace output. --prov-sample=K tracks every K-th seed lineage
 * (default 1 = all).
 *
 * --adaptive arms the online load-balance controller (default epoch
 * 50000 cycles) on every configuration with an adjustable
 * block-to-stage partition — FinePipeline groups of two or more
 * stages — and reports the controller's epoch and migration counts.
 * Other configurations run unchanged.
 *
 * --devices=N runs the Groups configurations (megakernel/versapipe)
 * sharded over N identical devices joined by the default peer
 * interconnect, under the --shard plan (default replicate), and adds
 * per-device utilization plus interconnect totals to the output.
 * Host-sequenced configurations (the KBK baseline) stay on one
 * device.
 *
 * --kill-device and --fail-link (both repeatable) script failover
 * chaos into the sharded runs: the named device dies (or the
 * directed interconnect path fails) at the given simulated cycle,
 * pinned stages re-home onto survivors, and the run reports a
 * Degraded outcome with a failover summary. Both flags require
 * --devices=N with N > 1.
 *
 * --serve runs the FIRST app as a pipeline service instead of a
 * one-shot batch (docs/MODEL.md, "Serving layer & SLO semantics"):
 * --tenants open-loop tenants (descending priority, staggered
 * token-bucket quotas) each offer --rate requests per kilocycle
 * until --horizon, batched into pipeline seeds every --epoch cycles
 * by the token-bucket admission controller; request k re-seeds the
 * app's flow k mod flowCount. Prints per-tenant admission and
 * end-to-end latency percentiles with SLO verdicts. Serving needs a
 * persistent-blocks configuration, so the run uses the megakernel
 * config (or --config=versapipe when that maps to a Groups top);
 * --devices=N serves sharded. --report includes the "serving"
 * section. --deadline=C arms a per-request completion deadline of C
 * cycles on every tenant: the table gains a deadline hit-rate
 * column (a request finishing exactly at the deadline is a hit) and
 * the summary line reports the run-wide miss count. Serving
 * vidstream swaps the flow workload for its frame clock — request k
 * of tenant t is the next frame of camera t, so the hit-rate is the
 * per-frame deadline metric of the camera's stream.
 *
 * The export flags instrument the selected configuration (default:
 * versapipe) of the FIRST app shown. --trace writes a
 * chrome://tracing / Perfetto trace_event file, --report a full JSON
 * report (stats, histograms, time-series), --csv the sampled
 * time-series alone, and --sample=N sets the sampling period in
 * simulated cycles (default 1000 when an export is requested).
 */

#include <fstream>
#include <iostream>

#include "bench_util.hh"
#include "obs/report.hh"
#include "apps/vidstream/vidstream_app.hh"
#include "serve/serving_engine.hh"

using namespace vp;
using namespace vp::bench;

namespace {

struct ObsOptions
{
    std::string tracePath;
    std::string reportPath;
    std::string csvPath;
    std::string config = "versapipe";
    Tick sampleCycles = 0.0;
    /** Devices to shard Groups configurations over (1 = plain run). */
    int devices = 1;
    /** Shard plan spec: replicate, rr, or pin:<d0>,<d1>,... */
    std::string shard = "replicate";
    /** Scripted device kills / link failures for sharded runs. */
    FaultPlan faults;
    /** Arm the online load-balance controller where applicable. */
    bool adaptive = false;
    /** Controller epoch override (<= 0 keeps the default). */
    Tick adaptiveEpoch = 0.0;
    /** Show only the instrumented config (skips autotuning when the
     *  selected config is not versapipe — used by the ctest entry). */
    bool only = false;
    /** Print the per-stage wait/service latency decomposition. */
    bool latency = false;
    /** Ranked critical-path segments to print (-1 = off, 0 = all). */
    int criticalPath = -1;
    /** Emit lineage flow events into the --trace output. */
    bool flow = false;
    /** Track every K-th seed lineage (1 = all). */
    std::uint64_t provSample = 1;
    /** Serving mode (--serve): continuous request ingest instead of
     *  the one-shot batch runs. */
    bool serve = false;
    int serveTenants = 2;
    /** Offered load per tenant, requests per kilocycle. */
    double serveRate = 0.25;
    Tick serveEpoch = 2000.0;
    Tick serveHorizon = 60000.0;
    OverloadPolicy serveOverload = OverloadPolicy::Shed;
    /** Per-request deadline, cycles (0 = none). */
    double serveDeadline = 0.0;

    bool provWanted() const
    {
        return latency || criticalPath >= 0 || flow;
    }

    bool wanted() const
    {
        return !tracePath.empty() || !reportPath.empty()
            || !csvPath.empty() || provWanted();
    }

    bool chaos() const
    {
        return !faults.deviceEvents.empty()
            || !faults.linkEvents.empty();
    }
};

/** Parse "<dev>@<cycle>" into a scripted device kill. */
DeviceFaultEvent
parseKillDevice(const std::string& v)
{
    std::size_t at = v.find('@');
    VP_REQUIRE(at != std::string::npos && at > 0,
               "--kill-device wants <dev>@<cycle>, got `" << v << "`");
    DeviceFaultEvent e;
    e.device = std::stoi(v.substr(0, at));
    e.time = std::stod(v.substr(at + 1));
    return e;
}

/** Parse "<src>-><dst>@<cycle>" into a scripted link failure. */
LinkFaultEvent
parseFailLink(const std::string& v)
{
    std::size_t arrow = v.find("->");
    std::size_t at = v.find('@');
    VP_REQUIRE(arrow != std::string::npos && at != std::string::npos
                   && arrow > 0 && at > arrow + 2,
               "--fail-link wants <src>-><dst>@<cycle>, got `" << v
               << "`");
    LinkFaultEvent e;
    e.src = std::stoi(v.substr(0, arrow));
    e.dst = std::stoi(v.substr(arrow + 2, at - arrow - 2));
    e.time = std::stod(v.substr(at + 1));
    e.kind = LinkFaultEvent::Kind::Fail;
    return e;
}

void
writeFile(const std::string& path, const std::string& what,
          const std::function<void(std::ostream&)>& writer)
{
    std::ofstream out(path);
    VP_REQUIRE(out.good(), "cannot open `" << path
               << "` for writing");
    writer(out);
    std::cout << "wrote " << what << " -> " << path << "\n";
}

/**
 * Per-stage bottleneck attribution: how long tracked items sat in
 * each stage's queue vs. were serviced by it, with per-item
 * percentiles from the finalized provenance histograms.
 */
void
showLatency(const ObsData& obs, const DeviceConfig& dev)
{
    const ProvenanceTracker& pv = *obs.provenance;
    auto decomp = pv.stageDecomposition();
    double total = 0.0;
    for (const StageDecomposition& d : decomp)
        total += d.waitCycles + d.serviceCycles;
    auto pct = [&](const std::string& name, double p) -> std::string {
        auto it = obs.metrics.histograms().find(name);
        if (it == obs.metrics.histograms().end()
            || it->second.empty())
            return "-";
        return TextTable::num(
            dev.cyclesToMs(it->second.percentile(p)), 4);
    };
    std::cout << "latency decomposition (tracked items):\n";
    TextTable t({"stage", "waits", "wait ms", "wait p95 ms",
                 "services", "service ms", "svc p95 ms", "share"});
    for (const StageDecomposition& d : decomp) {
        double share = total > 0.0
            ? (d.waitCycles + d.serviceCycles) / total
            : 0.0;
        t.addRow({d.name, std::to_string(d.waits),
                  TextTable::num(dev.cyclesToMs(d.waitCycles), 3),
                  pct("prov/wait/" + d.name, 0.95),
                  std::to_string(d.services),
                  TextTable::num(dev.cyclesToMs(d.serviceCycles), 3),
                  pct("prov/service/" + d.name, 0.95),
                  TextTable::num(100.0 * share, 1) + "%"});
    }
    std::cout << t.render();
    std::cout << "e2e per-item ms: p50=" << pct("prov/e2e_cycles", 0.50)
              << " p95=" << pct("prov/e2e_cycles", 0.95)
              << " p99=" << pct("prov/e2e_cycles", 0.99)
              << "  transfer ms total="
              << TextTable::num(
                     dev.cyclesToMs(pv.transferCyclesTotal()), 3)
              << "\n";
}

/** Ranked attribution of the last-finishing item's lineage chain. */
void
showCriticalPath(const ObsData& obs, const DeviceConfig& dev,
                 double runCycles, int topN)
{
    const ProvenanceTracker& pv = *obs.provenance;
    auto path = pv.criticalPath();
    if (path.empty()) {
        std::cout << "critical path: no completed tracked items\n";
        return;
    }
    double pathCycles = 0.0;
    for (const PathSegment& seg : path)
        pathCycles += seg.cycles;
    std::cout << "critical path: " << path.size() << " hops, "
              << TextTable::num(dev.cyclesToMs(pathCycles), 3)
              << " ms";
    if (runCycles > 0.0)
        std::cout << " ("
                  << TextTable::num(100.0 * pathCycles / runCycles, 1)
                  << "% of makespan)";
    std::cout << "\n";
    auto ranked = pv.rankedCriticalSegments(
        topN > 0 ? static_cast<std::size_t>(topN) : 0);
    TextTable t({"segment", "ms", "path share"});
    for (const auto& [label, cycles] : ranked)
        t.addRow({label, TextTable::num(dev.cyclesToMs(cycles), 4),
                  TextTable::num(100.0 * cycles / pathCycles, 1)
                      + "%"});
    std::cout << t.render();
}

void
exportObs(const RunResult& r, const DeviceConfig& dev,
          const ObsOptions& opts)
{
    VP_REQUIRE(r.obs, "run carried no observability data");
    const ObsData& obs = *r.obs;
    if (!opts.tracePath.empty()) {
        const ProvenanceTracker* flows =
            opts.flow ? obs.provenance.get() : nullptr;
        writeFile(opts.tracePath, "trace",
                  [&obs, flows](std::ostream& out) {
                      exportTraceJson(out, obs.tracer, flows);
                  });
    }
    if (!opts.reportPath.empty()) {
        writeFile(opts.reportPath, "report", [&r](std::ostream& out) {
            writeReportJson(out, r);
        });
    }
    if (!opts.csvPath.empty()) {
        writeFile(opts.csvPath, "time-series csv",
                  [&obs](std::ostream& out) {
                      writeTimeSeriesCsv(out, obs);
                  });
    }

    // Per-stage batch-latency percentiles, the at-a-glance view of
    // where time goes inside the pipeline.
    TextTable t({"stage", "batches", "p50 ms", "p95 ms", "p99 ms",
                 "mean ms", "stddev ms"});
    for (std::size_t s = 0; s < obs.stageBatchCycles.size(); ++s) {
        const Histogram& h = obs.stageBatchCycles[s];
        if (h.empty())
            continue;
        t.addRow({obs.stageNames[s],
                  std::to_string(h.count()),
                  TextTable::num(dev.cyclesToMs(h.percentile(0.50)), 4),
                  TextTable::num(dev.cyclesToMs(h.percentile(0.95)), 4),
                  TextTable::num(dev.cyclesToMs(h.percentile(0.99)), 4),
                  TextTable::num(dev.cyclesToMs(h.mean()), 4),
                  TextTable::num(dev.cyclesToMs(h.stddev()), 4)});
    }
    std::cout << t.render();
    std::cout << "trace events recorded=" << obs.tracer.recorded()
              << " dropped=" << obs.tracer.dropped()
              << " series=" << obs.sampler.series().size() << "\n";
    if (obs.tracer.dropped() > 0)
        std::cout << "WARNING: trace ring overflowed — the "
                  << obs.tracer.dropped()
                  << " oldest events were overwritten; the exported "
                     "trace is missing its earliest history "
                     "(increase ObsConfig::traceCapacity)\n";

    if (obs.provenance) {
        const ProvenanceTracker& pv = *obs.provenance;
        std::cout << "provenance: tracked " << pv.seedsTracked()
                  << "/" << pv.seedsSeen() << " seed lineages";
        if (pv.sampleEvery() > 1)
            std::cout << " (every " << pv.sampleEvery() << "th)";
        std::cout << ", " << pv.records().size() << " items: "
                  << pv.countByFate(ItemFate::Completed)
                  << " completed, "
                  << pv.countByFate(ItemFate::DeadLettered)
                  << " dead-lettered, "
                  << pv.countByFate(ItemFate::Dropped) << " dropped, "
                  << pv.countByFate(ItemFate::Open) << " open\n";
        if (opts.latency)
            showLatency(obs, dev);
        if (opts.criticalPath >= 0)
            showCriticalPath(obs, dev, r.cycles, opts.criticalPath);
    }
    std::cout << "\n";
}

/**
 * --serve: run one app as a pipeline service. N open-loop tenants in
 * descending priority, each offering --rate requests per kilocycle;
 * token-bucket quotas stagger from 1.5x the offered load (tenant 0)
 * down to 0.5x (the last tenant), so the tail tenant visibly sheds
 * under the default Shed policy. The loose default SLO — p99 within
 * ten horizons — keeps the verdict column live without CLI knobs
 * while only tripping on a service that is badly behind its load.
 */
void
serveApp(const std::string& name, const DeviceConfig& dev,
         const ObsOptions& opts)
{
    std::string where = dev.name;
    if (opts.devices > 1)
        where += " x" + std::to_string(opts.devices)
            + " shard=" + opts.shard;
    header(name + " served on " + where);

    auto app = makeApp(name);
    PipelineConfig cfg = makeMegakernelConfig(app->pipeline());
    std::string label = "megakernel";
    if (opts.config == "versapipe") {
        PipelineConfig v = versapipeConfig(name, dev);
        if (v.top == PipelineConfig::Top::Groups) {
            cfg = v;
            label = "versapipe";
        }
    }

    ServeConfig sc;
    sc.seed = 42;
    sc.epochCycles = opts.serveEpoch;
    sc.horizonCycles = opts.serveHorizon;
    sc.overload = opts.serveOverload;
    if (sc.overload == OverloadPolicy::Queue)
        sc.queueCapacity = 64;
    double perCycle = opts.serveRate / 1000.0;
    for (int t = 0; t < opts.serveTenants; ++t) {
        TenantConfig tc;
        tc.name = "t" + std::to_string(t);
        tc.priority = opts.serveTenants - 1 - t;
        double quota = opts.serveTenants > 1
            ? 1.5 - static_cast<double>(t) / (opts.serveTenants - 1)
            : 1.5;
        tc.tokensPerCycle = perCycle * quota;
        tc.burstTokens = 4.0;
        tc.sloP99Cycles = 10.0 * opts.serveHorizon;
        tc.deadlineCycles = opts.serveDeadline;
        ClientConfig cc;
        cc.kind = ArrivalKind::OpenLoop;
        cc.meanInterarrivalCycles = 1000.0 / opts.serveRate;
        tc.clients.push_back(cc);
        sc.tenants.push_back(tc);
    }

    // vidstream serves on its frame clock (tenant = camera); every
    // other app re-seeds flow k mod flowCount.
    std::unique_ptr<ServingWorkload> wlOwned;
    if (auto* vs = dynamic_cast<vidstream::VidstreamApp*>(app.get()))
        wlOwned = std::make_unique<vidstream::VsFrameWorkload>(*vs);
    else
        wlOwned = std::make_unique<FlowServingWorkload>(*app);
    ServingWorkload& wl = *wlOwned;
    RunResult r;
    if (opts.devices > 1) {
        Engine engine(
            DeviceGroupConfig::homogeneous(dev, opts.devices));
        if (opts.wanted()) {
            ObsConfig oc;
            oc.sampleIntervalCycles = opts.sampleCycles;
            engine.setObservability(oc);
        }
        Pipeline& pipe = app->pipeline();
        ShardPlan plan = opts.shard == "rr"
            ? ShardPlan::pinnedRoundRobin(cfg, pipe, opts.devices)
            : ShardPlan::parse(opts.shard, pipe, opts.devices);
        ServingEngine serve(engine, sc);
        r = serve.runSharded(wl, cfg, plan);
    } else {
        Engine engine(dev);
        if (opts.wanted()) {
            ObsConfig oc;
            oc.sampleIntervalCycles = opts.sampleCycles;
            engine.setObservability(oc);
        }
        ServingEngine serve(engine, sc);
        r = serve.run(wl, cfg);
    }
    VP_REQUIRE(r.completed && r.serving,
               name << ": serving run failed under " << r.configName
                    << "\n" << r.failureReason);

    const ServingRunStats& s = *r.serving;
    std::cout << label << ": " << TextTable::num(r.ms, 3) << " ms  ["
              << r.configName << "]\n";
    std::cout << "serving: " << s.epochs << " epochs of "
              << TextTable::num(s.epochCycles, 0) << " cycles, "
              << s.offered << " offered / " << s.admitted
              << " admitted / " << s.shed << " shed / " << s.completed
              << " completed (" << s.outstanding << " open), "
              << TextTable::num(s.throughputPerMCycle, 2)
              << " req/Mcycle\n";
    const bool deadlines = opts.serveDeadline > 0.0;
    if (deadlines)
        std::cout << "deadlines: "
                  << TextTable::num(opts.serveDeadline, 0)
                  << " cycles/request, " << s.deadlineMisses
                  << " missed, hit-rate "
                  << TextTable::num(100.0 * s.deadlineHitRate, 2)
                  << "%\n";
    std::vector<std::string> cols = {
        "tenant", "prio", "offered", "admitted", "shed",
        "completed", "p50 ms", "p99 ms", "slo p99"};
    if (deadlines)
        cols.push_back("deadline");
    TextTable t(cols);
    for (std::size_t i = 0; i < s.tenants.size(); ++i) {
        const TenantServeStats& ts = s.tenants[i];
        std::string verdict = ts.sloP99Cycles <= 0.0 ? "-"
            : (ts.sloP99Ok ? "ok" : "VIOLATED");
        if (!deadlines && ts.sloP99Cycles > 0.0
            && ts.deadlineMisses > 0)
            verdict += " (" + std::to_string(ts.deadlineMisses)
                + " late)";
        std::vector<std::string> row = {
            ts.name,
            std::to_string(sc.tenants[i].priority),
            std::to_string(ts.offered),
            std::to_string(ts.admitted),
            std::to_string(ts.shed),
            std::to_string(ts.completed),
            TextTable::num(dev.cyclesToMs(ts.p50Cycles), 4),
            TextTable::num(dev.cyclesToMs(ts.p99Cycles), 4),
            verdict};
        if (deadlines)
            row.push_back(
                TextTable::num(100.0 * ts.deadlineHitRate, 2) + "% ("
                + std::to_string(ts.deadlineMisses) + " late)");
        t.addRow(row);
    }
    std::cout << t.render();
    std::cout << "\n";
    if (opts.wanted())
        exportObs(r, dev, opts);
}

void
show(const std::string& name, const DeviceConfig& dev,
     const ObsOptions& opts, bool instrument)
{
    int devices = opts.devices;
    std::string where = dev.name;
    if (devices > 1)
        where += " x" + std::to_string(devices)
            + " shard=" + opts.shard;
    header(name + " on " + where);
    auto app = makeApp(name);
    struct Entry { std::string label; PipelineConfig cfg; };
    auto want = [&](const std::string& label) {
        return !instrument || !opts.only || opts.config == label;
    };
    std::vector<Entry> entries;
    if (want("baseline"))
        entries.push_back({"baseline", baselineConfig(*app, dev)});
    if (want("megakernel"))
        entries.push_back(
            {"megakernel", makeMegakernelConfig(app->pipeline())});
    if (want("versapipe"))
        entries.push_back({"versapipe", versapipeConfig(name, dev)});
    AdaptiveConfig ac;
    ac.enabled = opts.adaptive;
    if (opts.adaptiveEpoch > 0.0)
        ac.epochCycles = opts.adaptiveEpoch;
    for (auto& [label, cfg] : entries) {
        bool observe = instrument && opts.config == label;
        bool sharded = devices > 1
            && cfg.top == PipelineConfig::Top::Groups;
        bool adapt = opts.adaptive && adaptiveApplicable(cfg);
        RunResult r;
        if (sharded) {
            Engine engine(
                DeviceGroupConfig::homogeneous(dev, devices));
            if (observe) {
                ObsConfig oc;
                oc.sampleIntervalCycles = opts.sampleCycles;
                oc.provenance = opts.provWanted();
                oc.provenanceSampleEvery = opts.provSample;
                engine.setObservability(oc);
            }
            if (adapt)
                engine.setAdaptive(ac);
            if (opts.chaos()) {
                engine.setFaultPlan(opts.faults);
                engine.setRecovery(RecoveryConfig{});
            }
            Pipeline& pipe = app->pipeline();
            ShardPlan plan = opts.shard == "rr"
                ? ShardPlan::pinnedRoundRobin(cfg, pipe, devices)
                : ShardPlan::parse(opts.shard, pipe, devices);
            r = engine.runSharded(*app, cfg, plan);
            // Chaos runs legitimately finish Degraded; anything
            // else failing is still fatal.
            VP_REQUIRE(r.completed
                           || (opts.chaos()
                               && r.outcome == RunOutcome::Degraded),
                       app->name()
                       << ": sharded run failed under "
                       << r.configName << "\n" << r.failureReason);
        } else if (observe || adapt) {
            Engine engine(dev);
            if (observe) {
                ObsConfig oc;
                oc.sampleIntervalCycles = opts.sampleCycles;
                oc.provenance = opts.provWanted();
                oc.provenanceSampleEvery = opts.provSample;
                engine.setObservability(oc);
            }
            if (adapt)
                engine.setAdaptive(ac);
            r = engine.run(*app, cfg);
            VP_REQUIRE(r.completed, app->name()
                       << ": verification failed under "
                       << r.configName);
        } else {
            r = runOn(*app, dev, cfg);
        }
        std::cout << label << ": " << TextTable::num(r.ms, 3)
                  << " ms  [" << r.configName << "]\n";
        TextTable t({"stage", "items", "batches", "exec ms",
                     "queue ops ms", "contention ms", "max depth"});
        for (const auto& s : r.stages) {
            t.addRow({s.name, std::to_string(s.items),
                      std::to_string(s.batches),
                      TextTable::num(dev.cyclesToMs(s.execCycles), 3),
                      TextTable::num(
                          dev.cyclesToMs(s.queue.opCycles), 3),
                      TextTable::num(
                          dev.cyclesToMs(s.queue.contentionCycles),
                          3),
                      std::to_string(s.queue.maxDepth)});
        }
        std::cout << t.render();
        std::cout << "launches=" << r.device.kernelLaunches
                  << " peakBlocks=" << r.device.peakResidentBlocks
                  << " events=" << r.simEvents
                  << " dispatched=" << r.dispatchedEvents
                  << " polls=" << r.polls
                  << " retreats=" << r.retreats
                  << " util=" << TextTable::num(r.smUtilization, 3)
                  << "\n";
        if (adapt)
            std::cout << "adaptive: " << ac.describe() << " epochs="
                      << r.extra.get("adaptiveEpochs") << " moves="
                      << r.extra.get("adaptiveMoves") << "\n";
        if (!r.shardDevices.empty()) {
            for (std::size_t i = 0; i < r.shardDevices.size(); ++i) {
                const ShardDeviceStats& sd = r.shardDevices[i];
                std::cout << "  d" << i << " " << sd.deviceName
                          << ": util="
                          << TextTable::num(sd.smUtilization, 3)
                          << " launches=" << sd.device.kernelLaunches
                          << " peakBlocks="
                          << sd.device.peakResidentBlocks;
                if (sd.failed)
                    std::cout << " FAILED evacuated="
                              << sd.itemsEvacuated;
                if (sd.stagesRehomedIn > 0)
                    std::cout << " adoptedStages="
                              << sd.stagesRehomedIn;
                std::cout << "\n";
            }
            if (r.faults.devicesFailed > 0 || r.faults.linksFailed > 0
                || r.faults.linksDegraded > 0) {
                std::cout << "  failover: outcome="
                          << runOutcomeName(r.outcome)
                          << " devicesFailed="
                          << r.faults.devicesFailed
                          << " linksFailed=" << r.faults.linksFailed
                          << " stagesRehomed="
                          << r.faults.stagesRehomed
                          << " redelivered="
                          << r.faults.transfersRedelivered
                          << " evacuated=" << r.faults.itemsEvacuated
                          << " deadLettered="
                          << r.faults.deadLettered << "\n";
            }
            std::cout << "  interconnect: transfers="
                      << r.interconnect.transfers << " bytes="
                      << TextTable::num(r.interconnect.bytes, 0)
                      << " serialize ms="
                      << TextTable::num(
                             dev.cyclesToMs(
                                 r.interconnect.serializeCycles), 3)
                      << " wait ms="
                      << TextTable::num(
                             dev.cyclesToMs(
                                 r.interconnect.waitCycles), 3)
                      << "\n";
        }
        std::cout << "\n";
        if (observe)
            exportObs(r, dev, opts);
    }
}

} // namespace

int
main(int argc, char** argv)
{
    auto device = parseDeviceArg(argc, argv);
    DeviceConfig dev = DeviceConfig::byName(device.value_or("k20c"));
    std::vector<std::string> apps;
    ObsOptions opts;
    auto flagValue = [&](const std::string& arg,
                         const std::string& flag, int& i,
                         std::string& out) {
        // Accept both --flag=value and --flag value.
        if (arg.rfind(flag + "=", 0) == 0) {
            out = arg.substr(flag.size() + 1);
            return true;
        }
        if (arg == flag && i + 1 < argc) {
            out = argv[++i];
            return true;
        }
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string v;
        if (flagValue(arg, "--trace", i, v)) {
            opts.tracePath = v;
        } else if (flagValue(arg, "--report", i, v)) {
            opts.reportPath = v;
        } else if (flagValue(arg, "--csv", i, v)) {
            opts.csvPath = v;
        } else if (flagValue(arg, "--config", i, v)) {
            opts.config = v;
        } else if (flagValue(arg, "--sample", i, v)) {
            opts.sampleCycles = std::stod(v);
        } else if (flagValue(arg, "--devices", i, v)) {
            opts.devices = std::stoi(v);
            VP_REQUIRE(opts.devices >= 1,
                       "--devices wants a positive count");
        } else if (flagValue(arg, "--shard", i, v)) {
            opts.shard = v;
        } else if (flagValue(arg, "--kill-device", i, v)) {
            opts.faults.deviceEvents.push_back(parseKillDevice(v));
        } else if (flagValue(arg, "--fail-link", i, v)) {
            opts.faults.linkEvents.push_back(parseFailLink(v));
        } else if (arg == "--latency") {
            opts.latency = true;
        } else if (arg == "--critical-path") {
            opts.criticalPath = 10;
        } else if (arg.rfind("--critical-path=", 0) == 0) {
            opts.criticalPath = std::stoi(
                arg.substr(std::string("--critical-path=").size()));
            VP_REQUIRE(opts.criticalPath >= 0,
                       "--critical-path wants a non-negative count");
        } else if (arg == "--flow") {
            opts.flow = true;
        } else if (flagValue(arg, "--prov-sample", i, v)) {
            opts.provSample =
                static_cast<std::uint64_t>(std::stoull(v));
            VP_REQUIRE(opts.provSample >= 1,
                       "--prov-sample wants K >= 1");
        } else if (arg == "--serve") {
            opts.serve = true;
        } else if (flagValue(arg, "--tenants", i, v)) {
            opts.serveTenants = std::stoi(v);
            VP_REQUIRE(opts.serveTenants >= 1,
                       "--tenants wants a positive count");
        } else if (flagValue(arg, "--rate", i, v)) {
            opts.serveRate = std::stod(v);
            VP_REQUIRE(opts.serveRate > 0.0,
                       "--rate wants requests/kcycle > 0");
        } else if (flagValue(arg, "--epoch", i, v)) {
            opts.serveEpoch = std::stod(v);
            VP_REQUIRE(opts.serveEpoch > 0.0,
                       "--epoch wants a positive cycle count");
        } else if (flagValue(arg, "--horizon", i, v)) {
            opts.serveHorizon = std::stod(v);
            VP_REQUIRE(opts.serveHorizon > 0.0,
                       "--horizon wants a positive cycle count");
        } else if (flagValue(arg, "--deadline", i, v)) {
            opts.serveDeadline = std::stod(v);
            VP_REQUIRE(opts.serveDeadline > 0.0,
                       "--deadline wants a positive cycle count");
        } else if (flagValue(arg, "--overload", i, v)) {
            VP_REQUIRE(v == "shed" || v == "queue",
                       "--overload wants shed|queue, got `" << v
                       << "`");
            opts.serveOverload = v == "queue" ? OverloadPolicy::Queue
                                              : OverloadPolicy::Shed;
        } else if (arg == "--adaptive") {
            opts.adaptive = true;
        } else if (arg.rfind("--adaptive=", 0) == 0) {
            opts.adaptive = true;
            opts.adaptiveEpoch =
                std::stod(arg.substr(std::string("--adaptive=")
                                         .size()));
        } else if (arg == "--only") {
            opts.only = true;
        } else if (arg.rfind("--", 0) != 0) {
            apps.push_back(arg);
        }
    }
    if (opts.wanted() && opts.sampleCycles <= 0.0)
        opts.sampleCycles = 1000.0;
    VP_REQUIRE(!opts.chaos() || opts.devices > 1,
               "--kill-device/--fail-link script multi-device "
               "failover; add --devices=N with N > 1");
    if (opts.serve) {
        // Serving mode replaces the batch sweeps; default to one
        // representative app rather than the whole registry.
        if (apps.empty())
            apps = {"pyramid"};
        for (const std::string& name : apps)
            serveApp(name, dev, opts);
        return 0;
    }
    if (apps.empty())
        apps = appNames();
    bool first = true;
    for (const std::string& name : apps) {
        show(name, dev, opts, first && opts.wanted());
        first = false;
    }
    return 0;
}
