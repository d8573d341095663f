#include "gpu/device_group.hh"

#include <map>
#include <sstream>

#include "common/error.hh"
#include "gpu/block.hh"

namespace vp {

std::string
DeviceGroupConfig::describe() const
{
    // Collapse runs of identical device names: "2xgtx1080" rather
    // than "gtx1080+gtx1080".
    std::map<std::string, int> counts;
    std::vector<std::string> order;
    for (const DeviceConfig& d : devices) {
        if (counts.find(d.name) == counts.end())
            order.push_back(d.name);
        ++counts[d.name];
    }
    std::ostringstream os;
    bool first = true;
    for (const std::string& n : order) {
        if (!first)
            os << "+";
        first = false;
        if (counts[n] > 1)
            os << counts[n] << "x";
        os << n;
    }
    os << " (" << interconnect.describe() << ")";
    return os.str();
}

void
DeviceGroupConfig::validate() const
{
    VP_CHECK(!devices.empty(), ErrorCode::Config,
             "device group has no devices");
    interconnect.validate();
}

DeviceGroup::DeviceGroup(Simulator& sim, const DeviceGroupConfig& cfg)
    : cfg_(cfg),
      interconnect_(sim, cfg.interconnect,
                    static_cast<int>(cfg.devices.size()))
{
    cfg_.validate();
    for (const DeviceConfig& dc : cfg_.devices) {
        smTrackBase_.push_back(totalSms_);
        devices_.push_back(std::make_unique<Device>(sim, dc));
        hosts_.push_back(
            std::make_unique<Host>(sim, *devices_.back()));
        totalSms_ += dc.numSms;
    }
}

} // namespace vp
