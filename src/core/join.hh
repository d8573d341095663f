/**
 * @file
 * Keyed joins: the stage API's "the last sibling spawns the
 * continuation".
 *
 * Sibling tasks arrive at a join with a key (ExecContext::arrive).
 * The arrivals a key waits for are a function of the key, and the
 * framework runs the join's continuation inside the last arrival's
 * task, at the point of its arrival: the continuation's children are
 * enqueued (or, under RTC, inlined) exactly where the last sibling
 * would have enqueued them itself. The counters belong to the run
 * (JoinCounters), not to the app, so a replayed run can count
 * arrivals without the payload (core/task_graph.hh).
 */

#ifndef VP_CORE_JOIN_HH
#define VP_CORE_JOIN_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <type_traits>
#include <typeindex>
#include <unordered_map>
#include <vector>

namespace vp {

class ExecContext;

/** One join instance: a join's index and the bytes of its key. */
struct JoinKey
{
    std::int32_t join = 0;
    std::array<std::uint64_t, 2> bytes{};

    bool operator==(const JoinKey&) const = default;
};

/** Hash of a JoinKey. */
struct JoinKeyHash
{
    std::size_t
    operator()(const JoinKey& k) const noexcept
    {
        std::uint64_t h = static_cast<std::uint64_t>(k.join);
        for (std::uint64_t w : k.bytes)
            h = (h ^ w) * 0x100000001b3ULL + (h >> 29);
        return static_cast<std::size_t>(h);
    }
};

/**
 * The JoinKey of @p key at join @p join. A key is a small value whose
 * bytes are its value (no padding, no floats), so equal bytes mean
 * the same join instance.
 */
template <typename K>
JoinKey
joinKey(int join, const K& key)
{
    static_assert(std::has_unique_object_representations_v<K>
                      && sizeof(K) <= sizeof(JoinKey::bytes),
                  "a join key is at most 16 bytes of integers");
    JoinKey jk;
    jk.join = join;
    std::memcpy(jk.bytes.data(), &key, sizeof(K));
    return jk;
}

/** Type-erased base of the joins a Pipeline holds. */
class JoinBase
{
  public:
    JoinBase(std::string n, std::type_index keyType)
        : name(std::move(n)), keyType_(keyType)
    {}

    virtual ~JoinBase() = default;

    /** Join display name. */
    std::string name;

    /** Key type of the join. */
    std::type_index keyType() const { return keyType_; }

  private:
    std::type_index keyType_;
};

/** A join over keys of type K (Pipeline::addJoin). */
template <typename K>
class KeyedJoin : public JoinBase
{
  public:
    /** Arrivals the join of a key waits for (>= 1). */
    using Expected = std::function<int(const K&)>;
    /** The continuation; it may enqueue and arrive like a task. */
    using Then = std::function<void(ExecContext&, const K&)>;

    KeyedJoin(std::string name, Expected e, Then t)
        : JoinBase(std::move(name), std::type_index(typeid(K))),
          expected(std::move(e)), then(std::move(t))
    {}

    Expected expected;
    Then then;
};

/** Handle of a join over keys of type K, from Pipeline::addJoin. */
template <typename K>
struct Join
{
    int index = -1;
};

/**
 * The arrival counts of one run's joins: fresh per run, and one set
 * for all devices of a run (GroupCoordinator::joins).
 */
class JoinCounters
{
  public:
    /** Count one arrival at @p key; returns the arrivals so far. */
    int arrive(const JoinKey& key) { return ++byKey_[key]; }

    /** Count one arrival at @p slot of a replayed task graph;
     *  returns the arrivals so far. */
    int
    arriveSlot(std::size_t slot)
    {
        if (slot >= bySlot_.size())
            bySlot_.resize(slot + 1, 0);
        return ++bySlot_[slot];
    }

    /**
     * A serving run re-seeds flows, so a later request's arrivals can
     * reuse the keys of an earlier one. From this call on, arrivals
     * past a key's expected count are dropped (its join fires once
     * per run) instead of failing.
     */
    void dropLateArrivals() { dropLate_ = true; }

    /** True after dropLateArrivals(). */
    bool dropsLateArrivals() const { return dropLate_; }

  private:
    std::unordered_map<JoinKey, int, JoinKeyHash> byKey_;
    std::vector<int> bySlot_;
    bool dropLate_ = false;
};

} // namespace vp

#endif // VP_CORE_JOIN_HH
