/**
 * @file
 * DeviceGroup: N simulated devices sharing one simulator and one
 * interconnect, the substrate of multi-device (sharded) pipeline
 * execution.
 *
 * Each member device keeps its own Host ("one CPU thread per GPU"),
 * so launches and memcpys of different devices overlap, while the
 * group shares the simulator clock and the interconnect links. Trace
 * tracks are kept disjoint by offsetting every device's SM/stream
 * tracks by the cumulative SM/stream count of its predecessors.
 */

#ifndef VP_GPU_DEVICE_GROUP_HH
#define VP_GPU_DEVICE_GROUP_HH

#include <memory>
#include <string>
#include <vector>

#include "gpu/device.hh"
#include "gpu/device_config.hh"
#include "gpu/host.hh"
#include "sim/interconnect.hh"

namespace vp {

/** The devices of a group and the interconnect between them. */
struct DeviceGroupConfig
{
    /** Member device configurations (index = device id). */
    std::vector<DeviceConfig> devices;
    /** Link topology and cost parameters. */
    InterconnectConfig interconnect;

    /** @p n identical devices of configuration @p cfg. */
    static DeviceGroupConfig
    homogeneous(DeviceConfig cfg, int n)
    {
        DeviceGroupConfig g;
        for (int i = 0; i < n; ++i)
            g.devices.push_back(cfg);
        return g;
    }

    /** Number of member devices. */
    int size() const { return static_cast<int>(devices.size()); }

    /** "2xgtx1080 (peer 20B/cy lat700)"-style synopsis. */
    std::string describe() const;

    /** Fatal when empty or a member/interconnect config is invalid. */
    void validate() const;
};

/**
 * N live simulated devices on one simulator, each with its own host
 * thread, joined by an interconnect.
 */
class DeviceGroup
{
  public:
    DeviceGroup(Simulator& sim, const DeviceGroupConfig& cfg);

    DeviceGroup(const DeviceGroup&) = delete;
    DeviceGroup& operator=(const DeviceGroup&) = delete;

    /** Number of member devices. */
    int size() const { return static_cast<int>(devices_.size()); }

    /** Member device @p i. */
    Device& device(int i) { return *devices_[static_cast<std::size_t>(i)]; }

    /** Host thread of device @p i. */
    Host& host(int i) { return *hosts_[static_cast<std::size_t>(i)]; }

    /** The interconnect between the members. */
    Interconnect& interconnect() { return interconnect_; }

    /** SMs across all member devices. */
    int totalSms() const { return totalSms_; }

    /** First global trace track of device @p i's SMs. */
    int
    smTrackBase(int i) const
    {
        return smTrackBase_[static_cast<std::size_t>(i)];
    }

    /** The group configuration. */
    const DeviceGroupConfig& config() const { return cfg_; }

  private:
    DeviceGroupConfig cfg_;
    std::vector<std::unique_ptr<Device>> devices_;
    std::vector<std::unique_ptr<Host>> hosts_;
    std::vector<int> smTrackBase_;
    int totalSms_ = 0;
    Interconnect interconnect_;
};

} // namespace vp

#endif // VP_GPU_DEVICE_GROUP_HH
