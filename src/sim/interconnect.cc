#include "sim/interconnect.hh"

#include <sstream>

#include "common/error.hh"

namespace vp {

void
InterconnectConfig::validate() const
{
    VP_CHECK(peerBandwidthBytesPerCycle > 0.0, ErrorCode::Config,
             "interconnect: peer bandwidth must be positive");
    VP_CHECK(hostBandwidthBytesPerCycle > 0.0, ErrorCode::Config,
             "interconnect: host bandwidth must be positive");
    VP_CHECK(peerLatencyCycles >= 0.0 && hostLatencyCycles >= 0.0,
             ErrorCode::Config,
             "interconnect: latencies must be non-negative");
}

std::string
InterconnectConfig::describe() const
{
    std::ostringstream os;
    if (kind == Kind::Peer) {
        os << "peer " << peerBandwidthBytesPerCycle << "B/cy lat"
           << peerLatencyCycles;
    } else {
        os << "host-staged " << hostBandwidthBytesPerCycle
           << "B/cy lat" << hostLatencyCycles;
    }
    return os.str();
}

Interconnect::Interconnect(Simulator& sim,
                           const InterconnectConfig& cfg, int devices)
    : sim_(sim), cfg_(cfg), devices_(devices)
{
    VP_REQUIRE(devices >= 1, "interconnect spans no devices");
    cfg_.validate();
    if (cfg_.kind == InterconnectConfig::Kind::Peer) {
        links_.assign(static_cast<std::size_t>(devices * devices),
                      Link(cfg_.peerBandwidthBytesPerCycle,
                           cfg_.peerLatencyCycles));
    } else {
        // Per-device PCIe uplink (device -> host) then downlink.
        links_.assign(static_cast<std::size_t>(2 * devices),
                      Link(cfg_.hostBandwidthBytesPerCycle,
                           cfg_.hostLatencyCycles));
    }
}

Link&
Interconnect::peerLink(int src, int dst)
{
    return links_[static_cast<std::size_t>(src * devices_ + dst)];
}

void
Interconnect::transfer(int src, int dst, double bytes, EventFn deliver)
{
    VP_ASSERT(src >= 0 && src < devices_ && dst >= 0
                  && dst < devices_,
              "interconnect: device index out of range");
    VP_ASSERT(src != dst, "interconnect: transfer to self");
    VP_ASSERT(bytes >= 0.0, "interconnect: negative transfer size");

    Tick now = sim_.now();
    Tick arrival;
    if (cfg_.kind == InterconnectConfig::Kind::Peer) {
        arrival = peerLink(src, dst).occupy(bytes, now);
    } else {
        // Stage through the host: uplink first, then the downlink
        // once the payload has fully landed in host memory.
        Tick atHost =
            links_[static_cast<std::size_t>(src)].occupy(bytes, now);
        arrival = links_[static_cast<std::size_t>(devices_ + dst)]
                      .occupy(bytes, atHost);
    }

    ++inFlight_;
    if (inFlight_ > maxInFlight_)
        maxInFlight_ = inFlight_;
    if (trace_)
        trace_(src, dst, bytes, now, arrival);
    sim_.at(arrival,
            [this, deliver = std::move(deliver)]() mutable {
                --inFlight_;
                ++delivered_;
                deliver();
            });
}

void
Interconnect::failLink(int src, int dst)
{
    VP_ASSERT(src >= 0 && src < devices_ && dst >= 0
                  && dst < devices_,
              "interconnect: device index out of range");
    if (pathFailed_.empty())
        pathFailed_.assign(
            static_cast<std::size_t>(devices_ * devices_), 0);
    pathFailed_[static_cast<std::size_t>(src * devices_ + dst)] = 1;
}

void
Interconnect::failDevice(int dev)
{
    VP_ASSERT(dev >= 0 && dev < devices_,
              "interconnect: device index out of range");
    for (int other = 0; other < devices_; ++other) {
        if (other == dev)
            continue;
        failLink(dev, other);
        failLink(other, dev);
    }
}

void
Interconnect::degradeLink(int src, int dst, double factor)
{
    VP_ASSERT(src >= 0 && src < devices_ && dst >= 0
                  && dst < devices_ && src != dst,
              "interconnect: bad degrade path");
    VP_ASSERT(factor > 0.0 && factor <= 1.0,
              "interconnect: degrade factor outside (0, 1]");
    if (cfg_.kind == InterconnectConfig::Kind::Peer) {
        peerLink(src, dst).scaleBandwidth(factor);
    } else {
        links_[static_cast<std::size_t>(src)].scaleBandwidth(factor);
        links_[static_cast<std::size_t>(devices_ + dst)]
            .scaleBandwidth(factor);
    }
}

InterconnectStats
Interconnect::stats() const
{
    InterconnectStats s;
    for (const Link& l : links_) {
        // HostStaged counts each staged transfer on two links; report
        // end-to-end transfers from the delivery counter instead.
        s.bytes += l.stats().bytes;
        s.serializeCycles += l.stats().serializeCycles;
        s.waitCycles += l.stats().waitCycles;
    }
    s.transfers = delivered_ + inFlight_;
    s.delivered = delivered_;
    s.maxInFlight = maxInFlight_;
    return s;
}

} // namespace vp
