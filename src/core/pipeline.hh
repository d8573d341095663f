/**
 * @file
 * Pipeline: the stage graph a VersaPipe program declares.
 *
 * Users add stages (in pipeline order) and declare the edges along
 * which items flow; the framework derives structure classification
 * (linear / loop / recursion), producer masks for locality, and
 * ancestor masks for exact per-stage termination detection.
 */

#ifndef VP_CORE_PIPELINE_HH
#define VP_CORE_PIPELINE_HH

#include <memory>
#include <optional>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/stage.hh"

namespace vp {

/** Structural class of a pipeline (Table 1 of the paper). */
enum class PipelineStructure { Linear, Loop, Recursion };

/** Display name of a structure class. */
const char* structureName(PipelineStructure s);

/** The stage graph of one pipeline program. */
class Pipeline
{
  public:
    Pipeline() = default;

    Pipeline(const Pipeline&) = delete;
    Pipeline& operator=(const Pipeline&) = delete;

    /**
     * Construct stage @p S in place and append it to the pipeline.
     * @return reference to the constructed stage.
     */
    template <typename S, typename... Args>
    S&
    addStage(Args&&... args)
    {
        static_assert(std::is_base_of_v<StageBase, S>,
                      "stages must derive from vp::Stage<T>");
        VP_REQUIRE(stages_.size() < 32,
                   "pipelines support at most 32 stages");
        auto stage = std::make_unique<S>(std::forward<Args>(args)...);
        S& ref = *stage;
        std::type_index ti(typeid(S));
        VP_REQUIRE(!byType_.count(ti),
                   "stage type added twice: " << stage->name);
        byType_.emplace(ti, static_cast<int>(stages_.size()));
        stages_.push_back(std::move(stage));
        return ref;
    }

    /** Declare that items flow from stage @p from to stage @p to. */
    void link(int from, int to);

    /** Typed convenience overload of link(). */
    template <typename From, typename To>
    void
    link()
    {
        link(indexOf<From>(), indexOf<To>());
    }

    /** Number of stages. */
    int stageCount() const { return static_cast<int>(stages_.size()); }

    /** Stage by index. */
    StageBase& stage(int i);

    /** Stage by index, const. */
    const StageBase& stage(int i) const;

    /** Index of stage type @p S; fatal if absent. */
    template <typename S>
    int
    indexOf() const
    {
        return indexOfType(std::type_index(typeid(S)));
    }

    /** Index of a stage by type id; fatal if absent. */
    int indexOfType(std::type_index ti) const;

    /** Stage by type, downcast. */
    template <typename S>
    S&
    stageAs()
    {
        return static_cast<S&>(stage(indexOf<S>()));
    }

    /**
     * Register a keyed join named @p name (core/join.hh): the join of
     * a key waits for @p expected(key) arrivals, and @p then runs
     * inside the last arrival's task. Joins carry no state; a run
     * counts the arrivals. @return the handle ExecContext::arrive
     * takes.
     */
    template <typename K>
    Join<K>
    addJoin(std::string name, typename KeyedJoin<K>::Expected expected,
            typename KeyedJoin<K>::Then then)
    {
        joins_.push_back(std::make_unique<KeyedJoin<K>>(
            std::move(name), std::move(expected), std::move(then)));
        return Join<K>{static_cast<int>(joins_.size()) - 1};
    }

    /** Join by index. */
    const JoinBase& join(int i) const;

    /** The join behind handle @p j. */
    template <typename K>
    const KeyedJoin<K>&
    joinAs(Join<K> j) const
    {
        const JoinBase& b = join(j.index);
        VP_ASSERT(b.keyType() == std::type_index(typeid(K)),
                  "join `" << b.name << "` has another key type");
        return static_cast<const KeyedJoin<K>&>(b);
    }

    /** Declared edges as (from, to) pairs. */
    const std::vector<std::pair<int, int>>& edges() const
    {
        return edges_;
    }

    /** Mask of stages with a declared edge into @p s. */
    StageMask producersOf(int s) const;

    /** Mask of stages with a declared edge out of @p s. */
    StageMask consumersOf(int s) const;

    /**
     * Mask of all transitive producers of @p s, excluding @p s itself
     * unless it lies on a cycle reaching itself.
     */
    StageMask ancestorsOf(int s) const;

    /** True when the declared edges contain a cycle (incl. self). */
    bool hasCycle() const;

    /** Structure classification (explicit or derived). */
    PipelineStructure structure() const;

    /** Override the derived structure classification. */
    void setStructure(PipelineStructure s) { explicit_ = s; }

    /** Call reset() on every stage (between runs). */
    void resetStages();

    /**
     * Extra registers per thread a multi-stage Megakernel consumes
     * for its software scheduler state, on top of the merged stage
     * maximum (capped at the 255-register hardware limit). E.g., the
     * paper's Face Detection megakernel uses 87 registers while its
     * widest stage uses 69.
     */
    int megakernelExtraRegs = 0;

    /** Validate indices and connectivity; fatal on malformed graphs. */
    void validate() const;

  private:
    /**
     * Rebuild the per-stage mask caches when the graph changed.
     * producersOf/ancestorsOf sit on the runners' polling fast path,
     * so they must not re-walk the edge list on every call.
     */
    void refreshMasks() const;

    std::vector<std::unique_ptr<StageBase>> stages_;
    std::vector<std::unique_ptr<JoinBase>> joins_;
    std::unordered_map<std::type_index, int> byType_;
    std::vector<std::pair<int, int>> edges_;
    std::optional<PipelineStructure> explicit_;

    mutable std::vector<StageMask> producerMasks_;
    mutable std::vector<StageMask> consumerMasks_;
    mutable std::vector<StageMask> ancestorMasks_;
    /** (stage count, edge count) the caches were built for. */
    mutable std::pair<std::size_t, std::size_t> maskKey_{~0ull, ~0ull};
};

} // namespace vp

#endif // VP_CORE_PIPELINE_HH
