/**
 * @file
 * Enumeration of the offline tuner's configuration space (Fig. 10):
 * contiguous stage groupings x per-group models x SM mappings x block
 * mappings, with the paper's pruning rules (per-stage occupancy
 * bounds; identical block counts on every SM of a group) plus a
 * configurable cap on SM-mapping candidates.
 */

#ifndef VP_TUNER_SEARCH_SPACE_HH
#define VP_TUNER_SEARCH_SPACE_HH

#include <vector>

#include "core/model_config.hh"
#include "tuner/profiler.hh"

namespace vp {

/** Knobs bounding the offline search. */
struct SearchOptions
{
    /** SM-mapping candidates generated per grouping. */
    int smCandidates = 8;
    /** Block-mapping candidates generated per fine group. */
    int blockCandidates = 12;
    /** Hard cap on total configurations. */
    int maxConfigs = 4000;
};

/** True when @p stages can form an RTC inline-chain group. */
bool rtcInlinable(const Pipeline& pipe, const std::vector<int>& stages);

/**
 * All contiguous partitions of the stage list [0, n).
 * Each partition is a list of groups; each group a list of stages.
 */
std::vector<std::vector<std::vector<int>>>
contiguousPartitions(int n);

/**
 * Candidate SM allocations of @p numSms SMs over @p weights.size()
 * groups (each >= 1 SM): work-proportional, uniform, and
 * single-SM-shift perturbations, up to @p maxCandidates.
 */
std::vector<std::vector<int>>
smAllocations(int numSms, const std::vector<double>& weights,
              int maxCandidates);

/**
 * Generate the candidate configurations for one pipeline on one
 * device, pruned per the paper's rules and @p opts.
 */
std::vector<PipelineConfig>
enumerateConfigs(const Pipeline& pipe, const DeviceConfig& dev,
                 const ProfileResult& profile,
                 const SearchOptions& opts = {});

} // namespace vp

#endif // VP_TUNER_SEARCH_SPACE_HH
