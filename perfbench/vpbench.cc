/**
 * @file
 * vpbench: host-cost benchmark of the simulator.
 *
 * One process runs one workload on one host thread. Set-up (apps with
 * their inputs, engines, clean reference runs and one untimed warm-up
 * pass) is repeated and timed on its own; the timed phase then runs
 * whole passes of the workload until the requested time is spent.
 * Only calls into the public API are timed — app construction,
 * autotuneParallel, Engine::run, ServingEngine::run and
 * Engine::runSharded — in process CPU seconds, and every result is
 * checked. The last stdout line is one JSON object with the keys
 * `correct`, `attempted`, `failed` and `metrics`.
 *
 * Usage:
 *   vpbench --workload fig11-k20c|vidstream-serve|shard-failover
 *           [--seed N] [--seconds S] [--trace 0|1]
 *           [--scale full|small] [--trace-out FILE]
 *
 * --trace 1 re-runs the timed phase with spans recorded around every
 * timed call, prints the per-layer metrics instead of the end-to-end
 * ones and writes the spans as JSON to --trace-out. perfbench/README.md
 * describes the workloads and metrics.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/cfd/cfd_app.hh"
#include "apps/facedetect/facedetect_app.hh"
#include "apps/ldpc/ldpc_app.hh"
#include "apps/pyramid/pyramid_app.hh"
#include "apps/raster/raster_app.hh"
#include "apps/reyes/reyes_app.hh"
#include "apps/vidstream/vidstream_app.hh"
#include "bench_util.hh"
#include "core/engine.hh"
#include "obs/obs.hh"
#include "serve/serving_engine.hh"
#include "tuner/offline_tuner.hh"

using namespace vp;

namespace {

// ------------------------------------------------------------------ //
// Clocks and small helpers
// ------------------------------------------------------------------ //

/** CPU seconds consumed by this process (all threads). */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
mean(const std::vector<double>& v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Peak resident set of this process, MB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Decimal text of @p v with every significant digit. */
std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

/**
 * Derive an input seed from an app's default seed and the workload
 * seed. Workload seed 0 keeps the defaults, so the default run
 * reproduces bench/fig11_overall exactly; other seeds move every
 * input by an odd multiplier (a bijection on 64-bit seeds).
 */
std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t seed)
{
    return base + seed * 0x9E3779B97F4A7C15ULL;
}

/** Build app @p name at full or reduced scale with seeded inputs. */
std::unique_ptr<AppDriver>
makeSeededApp(const std::string& name, bool small, std::uint64_t seed)
{
    auto params = [&](auto full, auto reduced) {
        auto p = small ? reduced : full;
        p.seed = mixSeed(p.seed, seed);
        return p;
    };
    if (name == "pyramid")
        return std::make_unique<pyramid::PyramidApp>(params(
            pyramid::PyrParams{}, pyramid::PyrParams::small()));
    if (name == "facedetect")
        return std::make_unique<facedetect::FaceDetectApp>(params(
            facedetect::FdParams{}, facedetect::FdParams::small()));
    if (name == "reyes")
        return std::make_unique<reyes::ReyesApp>(
            params(reyes::ReyesParams{}, reyes::ReyesParams::small()));
    if (name == "cfd")
        return std::make_unique<cfd::CfdApp>(
            params(cfd::CfdParams{}, cfd::CfdParams::small()));
    if (name == "raster")
        return std::make_unique<raster::RasterApp>(params(
            raster::RasterParams{}, raster::RasterParams::small()));
    if (name == "ldpc")
        return std::make_unique<ldpc::LdpcApp>(
            params(ldpc::LdpcParams{}, ldpc::LdpcParams::small()));
    VP_FATAL("perfbench has no app `" << name << "`");
}

// ------------------------------------------------------------------ //
// Spans
// ------------------------------------------------------------------ //

/** One recorded interval of the benchmark's own code. */
struct Span
{
    std::string name;
    /** App the span belongs to ("" for none); spans of one app share
     *  its group id. */
    std::string app;
    int group = -1;
    int parent = -1;
    /** Top-level ancestor: a "setup" or "pass" span. */
    int root = -1;
    double wall0 = 0.0, wall1 = 0.0, cpu0 = 0.0, cpu1 = 0.0;

    double cpu() const { return cpu1 - cpu0; }
    double wall() const { return wall1 - wall0; }
};

/** In-memory span recorder; inert unless `on`. */
class SpanLog
{
  public:
    bool on = false;
    std::vector<Span> spans;

    int
    begin(const std::string& name, int group, const std::string& app)
    {
        if (!on)
            return -1;
        Span s;
        s.name = name;
        s.app = app;
        s.group = group;
        s.parent = stack_.empty() ? -1 : stack_.back();
        int id = static_cast<int>(spans.size());
        s.root = s.parent < 0 ? id : spans[s.parent].root;
        s.wall0 = wallNow();
        s.cpu0 = cpuNow();
        spans.push_back(std::move(s));
        stack_.push_back(id);
        return id;
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        Span& s = spans[static_cast<std::size_t>(id)];
        s.cpu1 = cpuNow();
        s.wall1 = wallNow();
        stack_.pop_back();
    }

  private:
    std::vector<int> stack_;
};

class SpanScope
{
  public:
    SpanScope(SpanLog& t, const std::string& name, int group = -1,
              const std::string& app = {})
        : t_(t), id_(t.begin(name, group, app))
    {
    }
    ~SpanScope() { t_.end(id_); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    SpanLog& t_;
    int id_;
};

// ------------------------------------------------------------------ //
// Workloads
// ------------------------------------------------------------------ //

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool small = false;
    std::string traceOut;
};

/**
 * Exact results of one pass: every simulated count and metric, keyed
 * by metric name, plus each app's configuration. Identical across
 * passes of one seed — the run's fingerprint.
 */
struct Fingerprint
{
    std::map<std::string, double> values;
    std::map<std::string, std::string> configs;

    bool
    operator==(const Fingerprint& o) const
    {
        return values == o.values && configs == o.configs;
    }

    double
    get(const std::string& key, double dflt = 0.0) const
    {
        auto it = values.find(key);
        return it == values.end() ? dflt : it->second;
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os << "{";
        const char* sep = "";
        for (const auto& [k, v] : values) {
            os << sep << jsonString(k) << ": " << num(v);
            sep = ", ";
        }
        for (const auto& [k, v] : configs) {
            os << sep << jsonString(k) << ": " << jsonString(v);
            sep = ", ";
        }
        os << "}";
        return os.str();
    }
};

/**
 * A workload: set-up builds everything from scratch, pass() runs the
 * timed phase once. Every call into the simulator goes through
 * timed(), which records its span and CPU time and turns an exception
 * into a recorded failure; every operation is counted through op().
 */
class Workload
{
  public:
    Workload(const Options& opt, SpanLog& trace)
        : opt_(opt), trace_(trace)
    {
    }
    virtual ~Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;

    /** Build apps, engines and references; run one warm-up pass. */
    virtual void setup() = 0;
    /** Run the timed phase once. */
    virtual Fingerprint pass() = 0;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    /** CPU seconds inside timed() calls since the last reset. */
    double callCpu = 0.0;

  protected:
    /** Run @p fn as a timed call under span @p span. @return false
     *  (problem recorded) when it threw. */
    bool
    timed(const std::string& span, int group, const std::string& app,
          const std::function<void()>& fn)
    {
        SpanScope s(trace_, span, group, app);
        double c0 = cpuNow();
        bool ok = true;
        try {
            fn();
        } catch (const std::exception& e) {
            ok = false;
            problems.push_back(span + " " + app + ": " + e.what());
        }
        callCpu += cpuNow() - c0;
        return ok;
    }

    /** Count @p n operations of which @p bad failed. */
    void
    op(std::uint64_t n, std::uint64_t bad, const std::string& what)
    {
        attempted += n;
        failed += bad;
        if (bad > 0)
            problems.push_back(what);
    }

    /** One operation that succeeded iff @p ok. */
    void
    op(bool ok, const std::string& what)
    {
        op(1, ok ? 0 : 1, what);
    }

    const Options& opt_;
    SpanLog& trace_;
};

bool
cleanRun(const RunResult& r)
{
    return r.completed && r.outcome == RunOutcome::Completed;
}

/** Simulated per-run counts every workload reports. */
void
addRunCounts(Fingerprint& fp, const RunResult& r)
{
    fp.values["sim.events"] += static_cast<double>(r.simEvents);
    fp.values["core.polls"] += static_cast<double>(r.polls);
    double batches = 0.0, contention = 0.0;
    for (const StageRunStats& s : r.stages) {
        batches += static_cast<double>(s.batches);
        contention += s.queue.contentionCycles;
    }
    fp.values["core.batches"] += batches;
    fp.values["queueing.contention_cycles"] += contention;
}

// ---- fig11-k20c --------------------------------------------------- //

/** Fig. 11a speedups over each app's original implementation on K20c,
 *  as bench/fig11_overall.cc derives them from the paper's Table 2. */
struct PaperRow
{
    const char* app;
    double megakernel;
    double versapipe;
};
constexpr PaperRow kPaperK20c[] = {
    {"pyramid", 14.41 / 1.59, 14.41 / 1.37},
    {"facedetect", 18.27 / 9.09, 18.27 / 5.38},
    {"reyes", 15.6 / 12.5, 15.6 / 7.7},
    {"cfd", 5820.0 / 5430.0, 5820.0 / 3270.0},
    {"raster", 32.8 / 30.8, 32.8 / 30.7},
    {"ldpc", 560.0 / 394.0, 560.0 / 352.0},
};

/**
 * Fig. 11a end to end on K20c: each paper app is tuned with the
 * search options of bench::versapipeConfig on one host thread, then
 * its baseline, Megakernel and tuned configurations run at full
 * scale.
 */
class Fig11Workload final : public Workload
{
  public:
    using Workload::Workload;

    void
    setup() override
    {
        apps_.clear();
        engine_ = std::make_unique<Engine>(dev_);
        for (const PaperRow& row : kPaperK20c) {
            int g = static_cast<int>(apps_.size());
            std::unique_ptr<AppDriver> app;
            timed("apps.make", g, row.app, [&] {
                app = makeSeededApp(row.app, opt_.small, opt_.seed);
            });
            if (!app) {
                op(false, std::string("make ") + row.app);
                continue;
            }
            // Warm-up: the first run builds the app's lazy CPU
            // reference, which the timed runs then only compare to.
            RunResult r;
            bool ran = timed("warmup", g, row.app, [&] {
                r = engine_->run(*app,
                                 makeMegakernelConfig(app->pipeline()));
            });
            op(ran && cleanRun(r), std::string("warm-up ") + row.app);
            apps_.push_back(std::move(app));
        }
    }

    Fingerprint
    pass() override
    {
        Fingerprint fp;
        double logErr = 0.0;
        int compared = 0;
        double smUtil = 0.0;
        for (std::size_t g = 0; g < apps_.size(); ++g) {
            AppDriver& app = *apps_[g];
            const std::string name = app.name();
            int gi = static_cast<int>(g);

            // bench::versapipeConfig tunes the heavy image apps and
            // CFD on their reduced workload.
            bool tuneSmall = opt_.small || name == "pyramid"
                || name == "facedetect" || name == "cfd";
            TunerOptions opts;
            opts.search.smCandidates = 5;
            opts.search.blockCandidates = 6;
            opts.search.maxConfigs = opt_.small ? 40 : 400;
            opts.onlineAdaptation = false;
            opts.threads = 1;
            TunerResult tuned;
            bool ran = timed("tuner.sweep", gi, name, [&] {
                tuned = autotuneParallel(
                    dev_,
                    [&] {
                        return makeSeededApp(name, tuneSmall,
                                             opt_.seed);
                    },
                    opts);
            });
            op(ran && cleanRun(tuned.bestRun), "tune " + name);
            if (!ran)
                continue;
            fp.values["tuner.candidates"] += tuned.evaluated;
            fp.values["tuner.timed_out"] += tuned.timedOut;
            fp.values["tuner.finished"] +=
                static_cast<double>(tuned.finished.size());
            fp.configs["winner." + name] =
                tuned.best.describe(app.pipeline());

            // Simulated ms of one run (0 when it failed).
            auto runModel = [&](const std::string& model,
                                const PipelineConfig& cfg) {
                RunResult r;
                bool ok = timed("core.run." + model, gi, name,
                                [&] { r = engine_->run(app, cfg); });
                ok = ok && cleanRun(r);
                op(ok, model + " run of " + name);
                fp.values["cycles." + name + "." + model] = r.cycles;
                addRunCounts(fp, r);
                if (model == "versapipe")
                    smUtil += r.smUtilization;
                return ok ? r.ms : 0.0;
            };
            double base =
                runModel("baseline", bench::baselineConfig(app, dev_));
            double mega = runModel(
                "megakernel", makeMegakernelConfig(app.pipeline()));
            double versa = runModel("versapipe", tuned.best);
            if (base > 0.0 && mega > 0.0 && versa > 0.0) {
                for (const PaperRow& row : kPaperK20c) {
                    if (name != row.app)
                        continue;
                    logErr += std::fabs(std::log(base / mega
                                                 / row.megakernel));
                    logErr += std::fabs(std::log(base / versa
                                                 / row.versapipe));
                    compared += 2;
                }
            }
        }
        fp.values["paper_err"] =
            compared > 0 ? std::exp(logErr / compared) : 1.0;
        fp.values["gpu.sm_util.versapipe"] = apps_.empty()
            ? 0.0
            : smUtil / static_cast<double>(apps_.size());
        return fp;
    }

  private:
    DeviceConfig dev_ = DeviceConfig::k20c();
    std::unique_ptr<Engine> engine_;
    std::vector<std::unique_ptr<AppDriver>> apps_;
};

// ---- vidstream-serve ---------------------------------------------- //

/**
 * vidstream served open-loop on GTX 1080 under Megakernel: one tenant
 * per camera on a 40k-cycle frame clock, each frame with a 60k-cycle
 * deadline (the bench_simcore vidstream scenario, longer horizon).
 */
class VidstreamWorkload final : public Workload
{
  public:
    using Workload::Workload;

    void
    setup() override
    {
        serve_.reset();
        engine_.reset();
        wl_.reset();
        app_.reset();
        vidstream::VsParams p = vidstream::VsParams::small();
        p.seed = mixSeed(p.seed, opt_.seed);
        timed("apps.make", 0, "vidstream", [&] {
            app_ = std::make_unique<vidstream::VidstreamApp>(p);
        });
        if (!app_) {
            op(false, "make vidstream");
            return;
        }
        wl_ = std::make_unique<vidstream::VsFrameWorkload>(*app_);
        cfg_ = makeMegakernelConfig(app_->pipeline());
        engine_ = std::make_unique<Engine>(dev_);
        serve_ = std::make_unique<ServingEngine>(
            *engine_, serveConfig(opt_.small ? 2.0e6 : 48.0e6));
        // Warm-up: one untimed pass.
        RunResult r;
        bool ran = timed("warmup", 0, "vidstream",
                         [&] { r = serve_->run(*wl_, cfg_); });
        op(ran && r.serving && r.serving->shed == 0
               && r.serving->outstanding == 0,
           "warm-up serve");
    }

    Fingerprint
    pass() override
    {
        Fingerprint fp;
        if (!serve_) {
            op(false, "vidstream set-up failed");
            return fp;
        }
        RunResult r;
        bool ran = timed("core.serve", 0, "vidstream",
                         [&] { r = serve_->run(*wl_, cfg_); });
        if (!ran || !r.serving) {
            op(false, "serve run");
            return fp;
        }
        const ServingRunStats& s = *r.serving;
        // Conservation per camera: offered = admitted + shed and
        // admitted = completed + outstanding.
        bool conserved = s.offered == s.admitted + s.shed
            && s.admitted == s.completed + s.outstanding;
        double p99 = 0.0;
        for (const TenantServeStats& t : s.tenants) {
            conserved = conserved && t.offered == t.admitted + t.shed
                && t.admitted == t.completed + t.outstanding;
            p99 = std::max(p99, t.p99Cycles);
        }
        // A frame fails when it is shed or left unfinished; a run
        // whose accounting does not hold fails all of its frames.
        bool runOk = r.outcome == RunOutcome::Completed && conserved;
        op(s.offered, runOk ? s.shed + s.outstanding : s.offered,
           "serve run: " + std::string(runOutcomeName(r.outcome))
               + (conserved ? "" : ", frame accounting broken")
               + ", shed " + std::to_string(s.shed) + ", unfinished "
               + std::to_string(s.outstanding));

        addRunCounts(fp, r);
        fp.values["serve.offered"] = static_cast<double>(s.offered);
        fp.values["serve.admitted"] = static_cast<double>(s.admitted);
        fp.values["serve.shed"] = static_cast<double>(s.shed);
        fp.values["serve.completed"] = static_cast<double>(s.completed);
        fp.values["serve.epochs"] = static_cast<double>(s.epochs);
        fp.values["serve.deadline_misses"] =
            static_cast<double>(s.deadlineMisses);
        fp.values["serve.frame_p99_ms"] = dev_.cyclesToMs(p99);
        fp.values["cycles.vidstream"] = r.cycles;
        // The app's own count of fully filtered frames, which also
        // covers the batch of frames every run seeds before serving.
        // Not checked: its per-slot join counter is shared by frames
        // whose numbers differ by a multiple of VsParams::frames, so
        // it can drop frames that overlap in flight (README.md).
        fp.values["serve.frames_filtered"] =
            static_cast<double>(app_->framesFiltered());
        // Shed and unfinished frames miss their deadline too.
        fp.values["deadline_hit_rate"] = s.offered > 0
            ? static_cast<double>(s.completed - s.deadlineMisses)
                / static_cast<double>(s.offered)
            : 1.0;
        return fp;
    }

  private:
    ServeConfig
    serveConfig(double horizon) const
    {
        ServeConfig sc;
        sc.seed = mixSeed(20260808, opt_.seed);
        sc.epochCycles = 4000.0;
        sc.horizonCycles = horizon;
        for (int cam = 0; cam < app_->params().cameras; ++cam) {
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
        return sc;
    }

    DeviceConfig dev_ = DeviceConfig::gtx1080();
    std::unique_ptr<vidstream::VidstreamApp> app_;
    std::unique_ptr<vidstream::VsFrameWorkload> wl_;
    std::unique_ptr<Engine> engine_;
    std::unique_ptr<ServingEngine> serve_;
    PipelineConfig cfg_;
};

// ---- shard-failover ----------------------------------------------- //

/**
 * Four GTX 1080s on the peer interconnect running the payload-light
 * apps under coarse configs pinned round-robin. Every timed run
 * degrades the link into the victim device at a quarter of the clean
 * makespan and kills the victim at half of it.
 */
class ShardWorkload final : public Workload
{
  public:
    using Workload::Workload;

    static constexpr int kDevices = 4;

    void
    setup() override
    {
        apps_.clear();
        DeviceGroupConfig group =
            DeviceGroupConfig::homogeneous(dev_, kDevices);
        for (const char* name : {"cfd", "raster", "reyes", "ldpc"}) {
            int g = static_cast<int>(apps_.size());
            App a;
            timed("apps.make", g, name, [&] {
                a.driver = makeSeededApp(name, opt_.small, opt_.seed);
            });
            if (!a.driver) {
                op(false, std::string("make ") + name);
                continue;
            }
            Pipeline& pipe = a.driver->pipeline();
            a.cfg = makeCoarseConfig(pipe, dev_);
            a.plan = ShardPlan::pinnedRoundRobin(a.cfg, pipe, kDevices);

            // The clean run fixes the fault times and the number of
            // seed items every faulted run must account for.
            Engine clean(group);
            clean.setObservability(lineageOnly());
            RunResult base;
            bool ran = timed("core.sharded.clean", g, name, [&] {
                base = clean.runSharded(*a.driver, a.cfg, a.plan);
            });
            Lineage lin = lineage(base);
            op(ran && cleanRun(base) && lin.open == 0,
               std::string("clean run of ") + name);
            a.cleanCycles = base.cycles;
            a.cleanSeeds = lin.seeds;

            // The seed picks the victim among the devices that host a
            // stage group; app g shifts it so one seed covers several.
            int hosts = std::min<int>(
                kDevices, static_cast<int>(a.cfg.groups.size()));
            a.victim = static_cast<int>(
                (opt_.seed + static_cast<std::uint64_t>(g))
                % static_cast<std::uint64_t>(hosts));
            FaultPlan fp;
            LinkFaultEvent link;
            link.time = 0.25 * base.cycles;
            link.src = (a.victim + kDevices - 1) % kDevices;
            link.dst = a.victim;
            link.kind = LinkFaultEvent::Kind::Degrade;
            link.factor = 0.25;
            fp.linkEvents.push_back(link);
            DeviceFaultEvent kill;
            kill.time = 0.5 * base.cycles;
            kill.device = a.victim;
            fp.deviceEvents.push_back(kill);
            a.engine = std::make_unique<Engine>(group);
            a.engine->setFaultPlan(fp);
            a.engine->setRecovery(RecoveryConfig{});
            apps_.push_back(std::move(a));
        }
        // Warm-up: one untimed pass of the faulted runs, with lineage
        // tracking armed to check conservation exactly. Tracking is
        // passive, so each timed run must then repeat its warm-up run
        // event for event.
        for (std::size_t g = 0; g < apps_.size(); ++g) {
            App& a = apps_[g];
            a.engine->setObservability(lineageOnly());
            RunResult r;
            bool ok = faultedRun(g, "warmup", r);
            a.engine->clearObservability();
            Lineage lin = lineage(r);
            op(ok && lin.seeds == a.cleanSeeds && lin.open == 0
                   && lin.deadLettered == r.faults.deadLettered,
               "lineage conservation of " + a.driver->name() + ": "
                   + std::to_string(lin.seeds) + " seeds of "
                   + std::to_string(a.cleanSeeds) + ", "
                   + std::to_string(lin.open) + " open, "
                   + std::to_string(lin.deadLettered) + " of "
                   + std::to_string(r.faults.deadLettered)
                   + " dead letters traced");
            a.expected = ledger(r);
        }
    }

    Fingerprint
    pass() override
    {
        Fingerprint fp;
        double logSlow = 0.0;
        int measured = 0;
        for (std::size_t g = 0; g < apps_.size(); ++g) {
            const App& a = apps_[g];
            RunResult r;
            bool ok = faultedRun(g, "core.sharded", r);
            op(ok && ledger(r) == a.expected,
               "faulted run of " + a.driver->name() + ": "
                   + (ok ? "differs from its warm-up run"
                         : runOutcomeName(r.outcome)));
            if (r.stages.empty())
                continue;
            const std::string name = a.driver->name();
            addRunCounts(fp, r);
            fp.values["cycles." + name + ".faulted"] = r.cycles;
            fp.values["victim." + name] = a.victim;
            fp.values["sim.transfers"] +=
                static_cast<double>(r.interconnect.transfers);
            fp.values["sim.link_wait_cycles"] += r.interconnect.waitCycles;
            fp.values["recovery.items_evacuated"] +=
                static_cast<double>(r.faults.itemsEvacuated);
            fp.values["recovery.transfers_redelivered"] +=
                static_cast<double>(r.faults.transfersRedelivered);
            fp.values["recovery.stages_rehomed"] += r.faults.stagesRehomed;
            fp.values["recovery.dead_lettered"] +=
                static_cast<double>(r.faults.deadLettered);
            if (a.cleanCycles > 0.0) {
                logSlow += std::log(r.cycles / a.cleanCycles);
                ++measured;
            }
        }
        fp.values["failover_slowdown"] =
            measured > 0 ? std::exp(logSlow / measured) : 1.0;
        return fp;
    }

  private:
    struct App
    {
        std::unique_ptr<AppDriver> driver;
        PipelineConfig cfg;
        ShardPlan plan;
        std::unique_ptr<Engine> engine;
        double cleanCycles = 0.0;
        std::uint64_t cleanSeeds = 0;
        int victim = 0;
        /** Ledger of the warm-up faulted run. */
        std::vector<double> expected;
    };

    struct Lineage
    {
        std::uint64_t seeds = 0;
        std::uint64_t open = 0;
        std::uint64_t deadLettered = 0;
    };

    static ObsConfig
    lineageOnly()
    {
        ObsConfig oc;
        oc.trace = false;
        oc.provenance = true;
        return oc;
    }

    /** Seed items seen, and tracked items left open or dead-lettered. */
    static Lineage
    lineage(const RunResult& r)
    {
        Lineage l;
        const ProvenanceTracker* p =
            r.obs ? r.obs->provenance.get() : nullptr;
        if (!p) {
            l.open = 1; // nothing tracked proves nothing
            return l;
        }
        l.seeds = p->seedsSeen();
        l.open = p->countByFate(ItemFate::Open);
        l.deadLettered = p->countByFate(ItemFate::DeadLettered);
        return l;
    }

    /** Makespan, events and per-stage processed and dead-lettered
     *  items of a run. */
    static std::vector<double>
    ledger(const RunResult& r)
    {
        std::vector<double> v = {r.cycles,
                                 static_cast<double>(r.simEvents)};
        for (const StageRunStats& s : r.stages) {
            v.push_back(static_cast<double>(s.items));
            v.push_back(static_cast<double>(s.deadLettered));
        }
        return v;
    }

    /**
     * One faulted run of app @p g. It must end Completed or Degraded
     * and verify, unless recovery dead-lettered items: a run that lost
     * items cannot verify, and lineage conservation then shows every
     * loss is in the dead-letter ledger. @return whether it did.
     */
    bool
    faultedRun(std::size_t g, const std::string& span, RunResult& r)
    {
        App& a = apps_[g];
        bool ran = timed(span, static_cast<int>(g), a.driver->name(),
                         [&] {
                             r = a.engine->runSharded(*a.driver, a.cfg,
                                                      a.plan);
                         });
        return ran
            && (r.outcome == RunOutcome::Completed
                || r.outcome == RunOutcome::Degraded)
            && (r.completed || r.faults.deadLettered > 0);
    }

    DeviceConfig dev_ = DeviceConfig::gtx1080();
    std::vector<App> apps_;
};

// ------------------------------------------------------------------ //
// Metrics
// ------------------------------------------------------------------ //

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * Per-layer span totals: for each traced root of @p kind ("setup" or
 * "pass"), the CPU (or wall minus CPU) seconds of spans accepted by
 * @p match, then the mean over those roots.
 */
double
spanMean(const SpanLog& t, const std::string& kind,
           const std::function<bool(const Span&)>& match, bool wait)
{
    std::map<int, double> perRoot;
    for (const Span& s : t.spans)
        if (s.parent < 0 && s.name == kind)
            perRoot[s.root] = 0.0;
    for (const Span& s : t.spans) {
        auto it = perRoot.find(s.root);
        if (s.parent >= 0 && it != perRoot.end() && match(s))
            it->second += wait ? s.wall() - s.cpu() : s.cpu();
    }
    std::vector<double> v;
    for (const auto& [root, sum] : perRoot)
        v.push_back(sum);
    return mean(v);
}

std::vector<Metric>
perLayerMetrics(const SpanLog& t, const Fingerprint& fp,
                double overhead)
{
    auto named = [](const std::string& n) {
        return [n](const Span& s) { return s.name == n; };
    };
    std::vector<Metric> m;
    auto cpu = [&](const std::string& metric, const std::string& kind,
                   const std::function<bool(const Span&)>& match) {
        m.push_back({metric, spanMean(t, kind, match, false), "s"});
    };
    auto wait = [&](const std::string& span, const std::string& kind) {
        m.push_back(
            {span + ".wait_s", spanMean(t, kind, named(span), true),
             "s"});
    };
    auto exact = [&](const std::string& key, const std::string& unit) {
        m.push_back({key, fp.get(key), unit});
    };

    cpu("apps.make.cpu_s", "setup", named("apps.make"));
    cpu("tuner.sweep.cpu_s", "pass", named("tuner.sweep"));
    for (const PaperRow& row : kPaperK20c) {
        std::string app = row.app;
        cpu("tuner.sweep." + app + ".cpu_s", "pass",
            [app](const Span& s) {
                return s.name == "tuner.sweep" && s.app == app;
            });
    }
    exact("tuner.candidates", "count");
    exact("tuner.timed_out", "count");
    double evaluated = fp.get("tuner.candidates");
    m.push_back({"tuner.useful_ratio",
                 evaluated > 0.0 ? fp.get("tuner.finished") / evaluated
                                 : 0.0,
                 "ratio"});
    for (const char* model : {"baseline", "megakernel", "versapipe"})
        cpu(std::string("core.run.") + model + ".cpu_s", "pass",
            named(std::string("core.run.") + model));
    cpu("core.serve.cpu_s", "pass", named("core.serve"));
    cpu("core.sharded.cpu_s", "pass", named("core.sharded"));

    exact("sim.events", "count");
    double engineCpu = spanMean(
        t, "pass",
        [](const Span& s) { return s.name.rfind("core.", 0) == 0; },
        false);
    m.push_back({"sim.events_per_cpu_s",
                 engineCpu > 0.0 ? fp.get("sim.events") / engineCpu : 0.0,
                 "1/s"});
    exact("sim.transfers", "count");
    exact("sim.link_wait_cycles", "cycles");
    for (const char* k : {"serve.offered", "serve.admitted", "serve.shed",
                          "serve.completed", "serve.epochs"})
        exact(k, "count");
    exact("serve.frame_p99_ms", "sim_ms");
    for (const char* k :
         {"recovery.items_evacuated", "recovery.transfers_redelivered",
          "recovery.stages_rehomed", "recovery.dead_lettered"})
        exact(k, "count");
    double batches = fp.get("core.batches");
    m.push_back({"core.polls_per_batch",
                 batches > 0.0 ? fp.get("core.polls") / batches : 0.0,
                 "ratio"});
    exact("gpu.sm_util.versapipe", "fraction");
    exact("queueing.contention_cycles", "cycles");

    wait("apps.make", "setup");
    wait("tuner.sweep", "pass");
    for (const char* model : {"baseline", "megakernel", "versapipe"})
        wait(std::string("core.run.") + model, "pass");
    wait("core.serve", "pass");
    wait("core.sharded", "pass");
    m.push_back({"trace.overhead", overhead, "ratio"});
    return m;
}

/** Count, CPU time, self time (minus children) and wait (wall minus
 *  CPU) of every span name, summed over the run. */
void
printSpanTable(const SpanLog& t)
{
    struct Acc
    {
        int count = 0;
        double cpu = 0.0, self = 0.0, wait = 0.0;
    };
    std::map<std::string, Acc> acc;
    std::vector<double> childCpu(t.spans.size(), 0.0);
    for (const Span& s : t.spans)
        if (s.parent >= 0)
            childCpu[static_cast<std::size_t>(s.parent)] += s.cpu();
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
        const Span& s = t.spans[i];
        Acc& a = acc[s.name];
        ++a.count;
        a.cpu += s.cpu();
        a.self += s.cpu() - childCpu[i];
        a.wait += s.wall() - s.cpu();
    }
    std::printf("%-22s %6s %12s %12s %12s\n", "span", "count", "cpu_s",
                "self_cpu_s", "wait_s");
    for (const auto& [name, a] : acc)
        std::printf("%-22s %6d %12.6f %12.6f %12.6f\n", name.c_str(),
                    a.count, a.cpu, a.self, a.wait);
}

void
writeSpans(const SpanLog& t, const std::string& path)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "perfbench: cannot write " << path << "\n";
        return;
    }
    os << "{\"spans\": [\n";
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
        const Span& s = t.spans[i];
        os << "  {\"id\": " << i << ", \"name\": " << jsonString(s.name)
           << ", \"parent\": " << s.parent << ", \"group\": " << s.group
           << ", \"app\": " << jsonString(s.app)
           << ", \"wall_start\": " << num(s.wall0)
           << ", \"wall_end\": " << num(s.wall1)
           << ", \"cpu_start\": " << num(s.cpu0)
           << ", \"cpu_end\": " << num(s.cpu1) << "}"
           << (i + 1 < t.spans.size() ? ",\n" : "\n");
    }
    os << "]}\n";
}

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "vpbench: " << why
              << "\nusage: vpbench --workload "
                 "fig11-k20c|vidstream-serve|shard-failover [--seed N] "
                 "[--seconds S] [--trace 0|1] [--scale full|small] "
                 "[--trace-out FILE]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value after " + a);
        std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (a == "--scale" && (v == "full" || v == "small"))
                o.small = v == "small";
            else if (a == "--trace-out")
                o.traceOut = v;
            else
                usage("bad argument " + a + " " + v);
        } catch (const std::logic_error&) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const Options& o, SpanLog& t)
{
    if (o.workload == "fig11-k20c")
        return std::make_unique<Fig11Workload>(o, t);
    if (o.workload == "vidstream-serve")
        return std::make_unique<VidstreamWorkload>(o, t);
    if (o.workload == "shard-failover")
        return std::make_unique<ShardWorkload>(o, t);
    usage("unknown workload " + o.workload);
}

/** Set-up repetitions whose median is setup_s. */
constexpr int kSetupReps = 3;

} // namespace

int
main(int argc, char** argv)
{
    Options opt = parseArgs(argc, argv);
    SpanLog tracer;
    tracer.on = opt.trace;
    std::unique_ptr<Workload> wl = makeWorkload(opt, tracer);
    std::printf("workload %s seed %llu scale %s trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.small ? "small" : "full", opt.trace ? 1 : 0);

    std::vector<double> setupCpu;
    for (int k = 0; k < kSetupReps; ++k) {
        SpanScope root(tracer, "setup");
        double c0 = cpuNow();
        wl->setup();
        setupCpu.push_back(cpuNow() - c0);
        std::printf("setup %d: cpu_s %.6f\n", k + 1, setupCpu.back());
    }

    // Timed passes while another one fits in the budget, at least one;
    // with tracing, half the budget untraced (the overhead baseline)
    // and half traced. The machine's speed shifts for seconds at a
    // time, so the mean over the window, which weighs every pass
    // alike, is steadier across runs than the median pass.
    std::vector<Fingerprint> prints;
    auto measure = [&](double budget, bool traced) {
        tracer.on = traced;
        std::vector<double> cpu;
        double w0 = wallNow(), last = 0.0;
        do {
            SpanScope root(tracer, "pass");
            wl->callCpu = 0.0;
            double wall0 = wallNow();
            prints.push_back(wl->pass());
            cpu.push_back(wl->callCpu);
            last = wallNow() - wall0;
            std::printf("pass %zu%s: cpu_s %.6f wall_s %.6f\n",
                        prints.size(), traced ? " (traced)" : "",
                        cpu.back(), last);
        } while (wallNow() - w0 + last <= budget);
        return mean(cpu);
    };
    double cpuS = 0.0, overhead = 0.0;
    if (opt.trace) {
        double plain = measure(opt.seconds / 2.0, false);
        cpuS = measure(opt.seconds / 2.0, true);
        overhead = plain > 0.0 ? cpuS / plain : 0.0;
    } else {
        cpuS = measure(opt.seconds, false);
    }

    bool identical = true;
    for (const Fingerprint& f : prints)
        identical = identical && f == prints.front();
    if (!identical)
        wl->problems.push_back("passes disagree on simulated results");
    const Fingerprint& fp = prints.front();
    std::printf("fingerprint %s\n", fp.json().c_str());
    for (const std::string& p : wl->problems)
        std::printf("FAILED: %s\n", p.c_str());

    std::vector<Metric> metrics;
    if (opt.trace) {
        printSpanTable(tracer);
        metrics = perLayerMetrics(tracer, fp, overhead);
        if (!opt.traceOut.empty()) {
            writeSpans(tracer, opt.traceOut);
            std::printf("spans written to %s\n", opt.traceOut.c_str());
        }
    } else {
        metrics = {
            {"setup_s", median(setupCpu), "s"},
            {"cpu_s", cpuS, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"paper_err", fp.get("paper_err", 1.0), "ratio"},
            {"deadline_hit_rate", fp.get("deadline_hit_rate", 1.0),
             "fraction"},
            {"failover_slowdown", fp.get("failover_slowdown", 1.0),
             "ratio"},
        };
    }
    for (const Metric& m : metrics)
        std::printf("metric %-34s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    bool correct = wl->failed == 0 && identical;
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << wl->attempted
       << ", \"failed\": " << wl->failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << jsonString(metrics[i].name)
           << ": {\"value\": " << num(metrics[i].value)
           << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    return 0;
}
