/**
 * @file
 * The auto-tuner's profiling component (sec 7): collects, per stage,
 * the maximum number of blocks launchable on one SM (from the
 * occupancy calculator) and the workload weight (from one profiling
 * run), which seed the offline search.
 */

#ifndef VP_TUNER_PROFILER_HH
#define VP_TUNER_PROFILER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hh"

namespace vp {

/** Per-stage profile used by the offline tuner. */
struct StageProfile
{
    std::string name;
    /** Occupancy bound for this stage as its own kernel. */
    int maxBlocksPerSm = 1;
    /** Data items the profiling run processed in this stage. */
    std::uint64_t items = 0;
    /** Total warp instructions the stage retired while profiled. */
    double totalWork = 0.0;
    /** Mean warp instructions per batch. */
    double meanBatchWork = 0.0;
};

/** Result of profiling one application on one device. */
struct ProfileResult
{
    std::vector<StageProfile> stages;
    /** Virtual cycles of the profiling (Megakernel) run. */
    double profileCycles = 0.0;

    /** Workload weight of a stage set (for SM apportionment). */
    double workOf(const std::vector<int>& stages) const;
};

/**
 * Profile @p driver on @p engine's device with one Megakernel run
 * (any model that touches every stage works; Megakernel needs no
 * structure assumptions). With @p capture, the run also records the
 * app's task graph into it (Engine::run); Megakernel inlines
 * nothing, so every recorded cost is the task's own.
 */
ProfileResult profileApp(Engine& engine, AppDriver& driver,
                         TaskGraph* capture = nullptr);

} // namespace vp

#endif // VP_TUNER_PROFILER_HH
