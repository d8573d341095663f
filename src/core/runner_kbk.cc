/**
 * @file
 * KbkRunner: the kernel-by-kernel baseline (Fig. 3b) and its
 * multi-stream variant (Fig. 13).
 *
 * The host sequences the pipeline: it scans the stages of one flow in
 * order, launches a grid kernel over the items currently queued at a
 * stage, synchronizes, performs CPU-side control (and per-item host
 * transfers for recursion control), and repeats passes until the flow
 * drains. Plain KBK processes flows (e.g., images) one after another,
 * as the original benchmarks do; KbkStream keeps several flows in
 * flight on concurrent streams.
 */

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "core/runtime.hh"
#include "core/stage_impl.hh"
#include "gpu/occupancy.hh"

namespace vp {

KbkRunner::KbkRunner(Simulator& sim, Device& dev, Host& host,
                     Pipeline& pipe, const PipelineConfig& cfg,
                     RunnerContext rc)
    : RunnerBase(sim, dev, host, pipe, cfg, rc)
{
}

KbkRunner::~KbkRunner() = default;

void
KbkRunner::buildUnits()
{
    if (cfg_.top == PipelineConfig::Top::Kbk && !cfg_.groups.empty()) {
        for (const StageGroup& grp : cfg_.groups) {
            if (grp.model == ExecModel::RTC) {
                Unit u;
                u.entry = grp.stages.front();
                for (std::size_t i = 1; i < grp.stages.size(); ++i)
                    u.inlineMask |= StageMask(1) << grp.stages[i];
                u.res = mergedResources(pipe_, grp.stages);
                u.hostBytesPerItem =
                    pipe_.stage(u.entry).kbkHostBytesPerItem;
                units_.push_back(u);
            } else {
                for (int s : grp.stages) {
                    Unit u;
                    u.entry = s;
                    u.res = pipe_.stage(s).resources;
                    u.hostBytesPerItem =
                        pipe_.stage(s).kbkHostBytesPerItem;
                    units_.push_back(u);
                }
            }
        }
        return;
    }
    for (int s = 0; s < pipe_.stageCount(); ++s) {
        Unit u;
        u.entry = s;
        u.res = pipe_.stage(s).resources;
        u.hostBytesPerItem = pipe_.stage(s).kbkHostBytesPerItem;
        units_.push_back(u);
    }
}

void
KbkRunner::start(AppDriver& driver)
{
    driver_ = &driver;
    buildUnits();
    int n = driver.flowCount();
    int concurrent = cfg_.top == PipelineConfig::Top::KbkStream
        ? std::min(cfg_.numStreams, n)
        : 1;
    makeQueueSets(std::max(1, n));
    flows_.resize(n);
    for (int f = 0; f < n; ++f) {
        flows_[f].id = f;
        flows_[f].stream = dev_.createStream();
    }
    host_.memcpy(driver.inputBytes(), [this, concurrent] {
        activeFlows_ = 0;
        nextFlowToSeed_ = 0;
        for (int i = 0; i < concurrent; ++i)
            startNextFlows();
    });
}

void
KbkRunner::startNextFlows()
{
    if (nextFlowToSeed_ >= static_cast<int>(flows_.size()))
        return;
    Flow& flow = flows_[nextFlowToSeed_++];
    flow.active = true;
    ++activeFlows_;
    if (tracer_)
        tracer_->begin(TraceKind::FlowSpan,
                       static_cast<std::int16_t>(flow.id),
                       sim_.now(), flow.id);
    seedFlow(flow.id);
    flowPass(flow);
}

void
KbkRunner::seedFlow(int flow)
{
    QueueSet& qs = queueSets_[static_cast<std::size_t>(flow)];
    Seeder seeder;
    seeder.pipe_ = &pipe_;
    seeder.route_ = [&qs](int stage, int) -> QueueBase& {
        return *qs[static_cast<std::size_t>(stage)];
    };
    seeder.pending_ = pendingPtr_;
    seeder.prov_ = prov_;
    seeder.flow_ = flow;
    seeder.capture_ = graphCapture_;
    seeder.replay_ = graphReplay_;
    driver_->seedFlow(seeder, flow);
}

void
KbkRunner::flowPass(Flow& flow)
{
    flowStage(flow, 0);
}

void
KbkRunner::flowStage(Flow& flow, int unitIdx)
{
    // Scan forward for the next unit with queued items.
    const QueueSet& qs = queueSets_[flow.id];
    for (int i = unitIdx; i < static_cast<int>(units_.size()); ++i) {
        if (!qs[units_[i].entry]->empty()) {
            launchStageKernel(flow, i, [this, &flow, i] {
                flowStage(flow, i + 1);
            });
            return;
        }
    }
    // End of pass: anything left means another pass (loop/recursion).
    // Items buffered for fault redelivery count too — the host keeps
    // polling until they land back in a queue.
    bool any = false;
    for (int i = 0; i < pipe_.stageCount(); ++i) {
        any = any || !qs[i]->empty() || recovery_.buffered(i) > 0;
    }
    if (any) {
        host_.control(dev_.config().hostControlUs,
                      [this, &flow] { flowPass(flow); });
    } else {
        flowFinished(flow);
    }
}

void
KbkRunner::launchStageKernel(Flow& flow, int unitIdx,
                             std::function<void()> done)
{
    const Unit& unit = units_[unitIdx];
    int s = unit.entry;
    int snapshot = static_cast<int>(queueSets_[flow.id][s]->size());
    VP_ASSERT(snapshot > 0, "launch over empty stage queue");
    int cap = batchCapacity(s);
    int grid = (snapshot + cap - 1) / cap;

    // Consume at most the items present at launch; items the kernel
    // itself produces (recursion) wait for the next host pass.
    flow.remaining = snapshot;

    auto kernel = std::make_shared<Kernel>(
        pipe_.stage(s).name + "_kbk", unit.res, stageBlockThreads(s),
        grid, [this, &flow, unitIdx](BlockContext& ctx) {
            blockLoop(ctx, flow, unitIdx);
        });
    host_.launchAsync(flow.stream, kernel);
    host_.synchronize(flow.stream, [this, &flow, unitIdx, snapshot,
                                    done = std::move(done)]() mutable {
        double bytes = units_[unitIdx].hostBytesPerItem * snapshot;
        auto after_copy = [this, done = std::move(done)]() mutable {
            host_.control(dev_.config().hostControlUs, std::move(done));
        };
        if (bytes > 0.0)
            host_.memcpy(bytes, std::move(after_copy));
        else
            after_copy();
    });
}

void
KbkRunner::blockLoop(BlockContext& ctx, Flow& flow, int unitIdx)
{
    if (flow.remaining <= 0) {
        ctx.exit();
        return;
    }
    const Unit& unit = units_[unitIdx];
    int m = std::min(batchCapacity(unit.entry), flow.remaining);
    flow.remaining -= m;
    processBatch(ctx, queueSets_[flow.id], unit.entry, unit.inlineMask,
                 m, [this, &ctx, &flow, unitIdx] {
                     blockLoop(ctx, flow, unitIdx);
                 });
}

void
KbkRunner::flowFinished(Flow& flow)
{
    flow.active = false;
    --activeFlows_;
    if (tracer_)
        tracer_->end(TraceKind::FlowSpan,
                     static_cast<std::int16_t>(flow.id), sim_.now(),
                     flow.id);
    VP_DEBUG("kbk: flow " << flow.id << " finished");
    startNextFlows();
}

} // namespace vp
