#include "tuner/search_space.hh"

#include <algorithm>
#include <numeric>
#include <set>

#include "gpu/occupancy.hh"

namespace vp {

bool
rtcInlinable(const Pipeline& pipe, const std::vector<int>& stages)
{
    if (stages.size() < 2)
        return false;
    StageMask in_group = 0;
    for (int s : stages)
        in_group |= StageMask(1) << s;
    // No external producers into non-entry stages.
    for (std::size_t i = 1; i < stages.size(); ++i) {
        if (pipe.producersOf(stages[i]) & ~in_group)
            return false;
    }
    // No cycles through group members (including self loops).
    for (int s : stages) {
        if (pipe.ancestorsOf(s) & (StageMask(1) << s))
            return false;
    }
    return true;
}

std::vector<std::vector<std::vector<int>>>
contiguousPartitions(int n)
{
    VP_REQUIRE(n >= 1 && n <= 20, "partition count out of range");
    std::vector<std::vector<std::vector<int>>> out;
    // Each of the n-1 gaps is either a cut or not.
    for (unsigned cuts = 0; cuts < (1u << (n - 1)); ++cuts) {
        std::vector<std::vector<int>> part;
        std::vector<int> cur = {0};
        for (int i = 1; i < n; ++i) {
            if (cuts & (1u << (i - 1))) {
                part.push_back(cur);
                cur.clear();
            }
            cur.push_back(i);
        }
        part.push_back(cur);
        out.push_back(std::move(part));
    }
    return out;
}

std::vector<std::vector<int>>
smAllocations(int numSms, const std::vector<double>& weights,
              int maxCandidates)
{
    int g = static_cast<int>(weights.size());
    VP_REQUIRE(g >= 1, "no groups");
    std::vector<std::vector<int>> out;
    if (g == 1) {
        out.push_back({numSms});
        return out;
    }
    VP_REQUIRE(numSms >= g, "fewer SMs than groups");

    std::set<std::vector<int>> seen;
    auto add = [&](std::vector<int> alloc) {
        if (static_cast<int>(out.size()) >= maxCandidates)
            return;
        for (int v : alloc)
            if (v < 1)
                return;
        if (std::accumulate(alloc.begin(), alloc.end(), 0) != numSms)
            return;
        if (seen.insert(alloc).second)
            out.push_back(std::move(alloc));
    };

    // Work-proportional apportionment (largest remainder, floor 1).
    double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    std::vector<int> prop(g, 1);
    if (total > 0.0) {
        int left = numSms - g;
        std::vector<std::pair<double, int>> rema;
        for (int i = 0; i < g; ++i) {
            double exact = weights[i] / total * (numSms - g);
            int whole = static_cast<int>(exact);
            prop[i] += whole;
            left -= whole;
            rema.emplace_back(exact - whole, i);
        }
        std::sort(rema.rbegin(), rema.rend());
        for (int i = 0; i < left; ++i)
            prop[rema[i % g].second] += 1;
    } else {
        for (int i = 0; i < numSms - g; ++i)
            prop[i % g] += 1;
    }
    add(prop);

    // Uniform split.
    std::vector<int> uni(g, numSms / g);
    for (int i = 0; i < numSms % g; ++i)
        uni[i] += 1;
    add(uni);

    // Single-SM shifts from the proportional allocation.
    for (int from = 0; from < g; ++from) {
        for (int to = 0; to < g; ++to) {
            if (from == to)
                continue;
            std::vector<int> alt = prop;
            alt[from] -= 1;
            alt[to] += 1;
            add(std::move(alt));
        }
    }
    return out;
}

namespace {

/** SM index ranges for an allocation (contiguous assignment). */
std::vector<std::vector<int>>
allocationToSmSets(const std::vector<int>& alloc)
{
    std::vector<std::vector<int>> sets;
    int next = 0;
    for (int count : alloc) {
        std::vector<int> sms;
        for (int i = 0; i < count; ++i)
            sms.push_back(next++);
        sets.push_back(std::move(sms));
    }
    return sets;
}

/**
 * Candidate per-SM block mappings for a fine group: the shrunken
 * occupancy-max default plus systematic reductions of each stage.
 */
std::vector<std::map<int, int>>
blockMappings(const Pipeline& pipe, const DeviceConfig& dev,
              const std::vector<int>& stages,
              const ProfileResult& profile, int threadsPerBlock,
              int maxCandidates)
{
    auto block_threads = [&](int s) {
        int bt = pipe.stage(s).blockThreads;
        return bt > 0 ? bt : threadsPerBlock;
    };
    auto fits = [&](const std::map<int, int>& want) {
        long regs = 0, threads = 0, blocks = 0, smem = 0;
        for (int s : stages) {
            int b = want.at(s);
            const ResourceUsage& r = pipe.stage(s).resources;
            regs += long(b) * r.regsPerThread * block_threads(s);
            smem += long(b) * r.smemPerBlock;
            threads += long(b) * block_threads(s);
            blocks += b;
        }
        return regs <= dev.regsPerSm && threads <= dev.maxThreadsPerSm
            && blocks <= dev.maxBlocksPerSm && smem <= dev.smemPerSm;
    };

    // Start at per-stage occupancy maxima (pruning rule 1), shrink
    // the cheapest-to-shrink stage (least profiled work per block)
    // until the combination fits.
    std::map<int, int> base;
    for (int s : stages) {
        int cap = std::max(1, maxBlocksPerSm(dev,
                                             pipe.stage(s).resources,
                                             block_threads(s))
                                  .blocksPerSm);
        base[s] = cap;
    }
    while (!fits(base)) {
        int victim = -1;
        double least = 0.0;
        for (int s : stages) {
            if (base[s] <= 1)
                continue;
            double work = profile.stages[s].totalWork
                / std::max(1, base[s]);
            if (victim < 0 || work < least) {
                victim = s;
                least = work;
            }
        }
        if (victim < 0)
            return {}; // cannot co-locate these stages at all
        base[victim] -= 1;
    }

    std::vector<std::map<int, int>> out = {base};
    std::set<std::map<int, int>> seen = {base};
    // Reductions: each stage down to 1 block in halving steps.
    for (int s : stages) {
        std::map<int, int> alt = base;
        while (alt[s] > 1
               && static_cast<int>(out.size()) < maxCandidates) {
            alt[s] = alt[s] / 2;
            if (alt[s] < 1)
                alt[s] = 1;
            if (fits(alt) && seen.insert(alt).second)
                out.push_back(alt);
            if (alt[s] == 1)
                break;
        }
    }
    return out;
}

} // namespace

std::vector<PipelineConfig>
enumerateConfigs(const Pipeline& pipe, const DeviceConfig& dev,
                 const ProfileResult& profile,
                 const SearchOptions& opts)
{
    std::vector<PipelineConfig> out;
    auto push = [&](PipelineConfig cfg) {
        if (static_cast<int>(out.size()) >= opts.maxConfigs)
            return;
        try {
            cfg.validate(pipe, dev);
        } catch (const FatalError&) {
            return;
        }
        out.push_back(std::move(cfg));
    };

    // The canonical whole-pipeline configurations come first. Their
    // builders can legitimately fail (e.g., a pure fine pipeline
    // whose stages cannot co-reside on one SM).
    auto try_push = [&](auto&& make) {
        try {
            push(make());
        } catch (const FatalError&) {
        }
    };
    try_push([&] { return makeMegakernelConfig(pipe); });
    if (!pipe.hasCycle())
        try_push([&] { return makeRtcConfig(pipe); });
    if (dev.numSms >= pipe.stageCount())
        try_push([&] { return makeCoarseConfig(pipe, dev); });
    try_push([&] { return makeFineConfig(pipe, dev); });

    for (const auto& partition : contiguousPartitions(
             pipe.stageCount())) {
        int g = static_cast<int>(partition.size());
        if (g > dev.numSms)
            continue;

        // Model choices per group.
        std::vector<std::vector<ExecModel>> choices;
        for (const auto& grp : partition) {
            std::vector<ExecModel> c = {ExecModel::Megakernel};
            if (grp.size() > 1) {
                c.push_back(ExecModel::FinePipeline);
                if (rtcInlinable(pipe, grp))
                    c.push_back(ExecModel::RTC);
            }
            choices.push_back(std::move(c));
        }

        // SM allocations weighted by profiled group work.
        std::vector<double> weights;
        for (const auto& grp : partition)
            weights.push_back(std::max(1.0, profile.workOf(grp)));
        std::vector<std::vector<int>> allocs;
        if (g == 1) {
            allocs.push_back({}); // all SMs, no binding
        } else {
            for (const auto& a :
                 smAllocations(dev.numSms, weights,
                               opts.smCandidates)) {
                allocs.push_back(a);
            }
        }

        // Cartesian product over model choices.
        std::vector<int> pick(g, 0);
        for (;;) {
            for (const auto& alloc : allocs) {
                std::vector<std::vector<int>> sm_sets;
                if (!alloc.empty())
                    sm_sets = allocationToSmSets(alloc);

                // Expand fine groups over their block mappings.
                std::vector<PipelineConfig> partial(1);
                for (int i = 0; i < g; ++i) {
                    ExecModel m = choices[i][pick[i]];
                    StageGroup base_grp;
                    base_grp.stages = partition[i];
                    base_grp.model = m;
                    if (!sm_sets.empty())
                        base_grp.sms = sm_sets[i];
                    std::vector<PipelineConfig> next;
                    if (m == ExecModel::FinePipeline) {
                        auto maps = blockMappings(
                            pipe, dev, partition[i], profile, 256,
                            opts.blockCandidates);
                        for (const auto& bm : maps) {
                            for (PipelineConfig c : partial) {
                                StageGroup grp = base_grp;
                                grp.blocksPerSm = bm;
                                c.groups.push_back(std::move(grp));
                                next.push_back(std::move(c));
                            }
                        }
                    } else {
                        for (PipelineConfig c : partial) {
                            c.groups.push_back(base_grp);
                            next.push_back(std::move(c));
                        }
                    }
                    partial = std::move(next);
                    if (partial.empty())
                        break;
                }
                for (PipelineConfig& c : partial)
                    push(std::move(c));
                if (static_cast<int>(out.size()) >= opts.maxConfigs)
                    return out;
            }
            // Advance the model-choice odometer.
            int i = 0;
            while (i < g) {
                if (++pick[i] < static_cast<int>(choices[i].size()))
                    break;
                pick[i] = 0;
                ++i;
            }
            if (i == g)
                break;
        }
    }
    return out;
}

} // namespace vp
