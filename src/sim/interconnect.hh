/**
 * @file
 * Simulated inter-device interconnect.
 *
 * Models the links that carry data items between the devices of a
 * DeviceGroup. Two topologies are supported:
 *
 *  - HostStaged: every transfer is staged through host memory over
 *    the source and destination devices' PCIe links (one shared
 *    uplink and one shared downlink per device), like a
 *    cudaMemcpyPeer without peer access.
 *  - Peer: every ordered device pair owns a direct link (NVLink-like
 *    peer access): higher bandwidth, lower latency, no host hop.
 *
 * Each link serializes its transfers: a transfer occupies the link
 * for bytes/bandwidth cycles starting no earlier than the link's
 * busy-until horizon, so concurrent transfers queue and the wait is
 * accounted as contention. Delivery is an ordinary simulation event
 * at arrival time (serialization end + link latency), which keeps
 * multi-device runs fully deterministic.
 *
 * The interconnect lives in vp_sim and therefore cannot depend on
 * the tracer (vp_obs sits above vp_sim); callers that want transfer
 * spans recorded install a trace hook instead.
 */

#ifndef VP_SIM_INTERCONNECT_HH
#define VP_SIM_INTERCONNECT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace vp {

/** Per-link transfer counters. */
struct LinkStats
{
    std::uint64_t transfers = 0;
    double bytes = 0.0;
    /** Cycles the link spent moving payload. */
    double serializeCycles = 0.0;
    /** Cycles transfers waited for the link to free up. */
    double waitCycles = 0.0;
};

/** Group-wide interconnect counters for a run. */
struct InterconnectStats
{
    std::uint64_t transfers = 0;
    double bytes = 0.0;
    double serializeCycles = 0.0;
    double waitCycles = 0.0;
    /** Transfers delivered to their destination so far. */
    std::uint64_t delivered = 0;
    /** Peak number of simultaneously in-flight transfers. */
    std::uint64_t maxInFlight = 0;
};

/** Topology and cost parameters of a group's interconnect. */
struct InterconnectConfig
{
    enum class Kind
    {
        /** Transfers staged through host memory over PCIe. */
        HostStaged,
        /** Direct per-pair peer links (NVLink-like). */
        Peer,
    };

    Kind kind = Kind::Peer;

    /** Peer-link bandwidth, bytes per device cycle (~20 B/cy at
     *  1.6 GHz is roughly NVLink-class 32 GB/s). */
    double peerBandwidthBytesPerCycle = 20.0;
    /** Peer-link latency from serialization end to delivery. */
    Tick peerLatencyCycles = 700.0;

    /** Host-staged (PCIe) bandwidth per direction, bytes/cycle. */
    double hostBandwidthBytesPerCycle = 4.0;
    /** Latency of one host-staged hop (per direction). */
    Tick hostLatencyCycles = 1500.0;

    /** Fatal when a parameter is out of range. */
    void validate() const;

    /** One-line synopsis ("peer 20B/cy lat700"). */
    std::string describe() const;
};

/**
 * One directed link: serializes transfers in submission order.
 */
class Link
{
  public:
    Link() = default;

    Link(double bandwidthBytesPerCycle, Tick latencyCycles)
        : bw_(bandwidthBytesPerCycle), lat_(latencyCycles)
    {}

    /**
     * Occupy the link with a @p bytes transfer submitted at
     * @p earliest. Serialization starts at max(earliest, busy-until)
     * and the link is busy until it ends.
     * @return the delivery time (serialization end + latency).
     */
    Tick
    occupy(double bytes, Tick earliest)
    {
        Tick start = earliest > busyUntil_ ? earliest : busyUntil_;
        Tick ser = bytes / bw_;
        busyUntil_ = start + ser;
        stats_.transfers += 1;
        stats_.bytes += bytes;
        stats_.serializeCycles += ser;
        stats_.waitCycles += start - earliest;
        return busyUntil_ + lat_;
    }

    /** Time at which the link next frees up. */
    Tick busyUntil() const { return busyUntil_; }

    /** Scale the link's bandwidth by @p factor (degradation). */
    void scaleBandwidth(double factor) { bw_ *= factor; }

    /** Per-link counters. */
    const LinkStats& stats() const { return stats_; }

  private:
    double bw_ = 1.0;
    Tick lat_ = 0.0;
    Tick busyUntil_ = 0.0;
    LinkStats stats_;
};

/**
 * The interconnect of one device group: owns the links and turns
 * transfers into delivery events on the group's simulator.
 */
class Interconnect
{
  public:
    /** Called when a transfer is submitted: (src, dst, bytes,
     *  submit time, delivery time). */
    using TraceHook =
        std::function<void(int, int, double, Tick, Tick)>;

    Interconnect(Simulator& sim, const InterconnectConfig& cfg,
                 int devices);

    /** Number of devices the interconnect spans. */
    int devices() const { return devices_; }

    /** The configuration. */
    const InterconnectConfig& config() const { return cfg_; }

    /**
     * Move @p bytes from device @p src to device @p dst, then run
     * @p deliver at the modeled arrival time. Transfers between the
     * same (src, dst) pair deliver in submission order.
     */
    void transfer(int src, int dst, double bytes, EventFn deliver);

    /** Transfers submitted but not yet delivered. */
    std::uint64_t inFlight() const { return inFlight_; }

    /** @name Path failure / degradation (failover support) @{
     *
     * The interconnect only records which directed paths are usable;
     * the group coordinator decides what happens to traffic that
     * would have used a failed path (re-home, redeliver, or
     * dead-letter) because only it can keep the group's termination
     * counter exact. Transfers already submitted are unaffected —
     * the payload has left the source.
     */

    /** Mark the directed @p src -> @p dst path failed. */
    void failLink(int src, int dst);

    /** Mark every path to or from @p dev failed (device death). */
    void failDevice(int dev);

    /**
     * Scale the bandwidth of the @p src -> @p dst path by
     * @p factor. Peer topology degrades the pair's direct link;
     * HostStaged degrades the source uplink and destination
     * downlink (which other pairs share, like a real PCIe switch).
     */
    void degradeLink(int src, int dst, double factor);

    /** True when the directed @p src -> @p dst path is usable. */
    bool
    pathUsable(int src, int dst) const
    {
        if (pathFailed_.empty())
            return true;
        return !pathFailed_[static_cast<std::size_t>(
            src * devices_ + dst)];
    }

    /** @} */

    /** Group-wide counters (sums the links). */
    InterconnectStats stats() const;

    /** Install @p hook to observe every transfer (null detaches). */
    void setTraceHook(TraceHook hook) { trace_ = std::move(hook); }

  private:
    /** Directed peer link src -> dst (Peer topology). */
    Link& peerLink(int src, int dst);

    Simulator& sim_;
    InterconnectConfig cfg_;
    int devices_;
    /** Peer: devices*devices directed links (diagonal unused).
     *  HostStaged: per-device uplinks then downlinks. */
    std::vector<Link> links_;
    /** Directed-path failure flags (devices^2, lazily allocated). */
    std::vector<char> pathFailed_;
    std::uint64_t inFlight_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t maxInFlight_ = 0;
    TraceHook trace_;
};

} // namespace vp

#endif // VP_SIM_INTERCONNECT_HH
