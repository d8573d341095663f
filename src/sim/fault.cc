#include "sim/fault.hh"

#include <cmath>

#include "common/error.hh"

namespace vp {

namespace {

void
checkProb(double p, const char* name)
{
    VP_CHECK(p >= 0.0 && p <= 1.0 && !std::isnan(p), ErrorCode::Config,
             "fault probability " << name << " = " << p
                                  << " outside [0, 1]");
}

/** Delays and event times become simulator events, whose times must
 *  be finite. */
void
checkCycles(Tick t, const char* name)
{
    VP_CHECK(t >= 0.0 && std::isfinite(t), ErrorCode::Config,
             name << " " << t << " must be finite and >= 0");
}

} // namespace

void
FaultPlan::validate() const
{
    checkProb(taskFailProb, "taskFailProb");
    checkProb(taskSlowProb, "taskSlowProb");
    checkProb(pushDropProb, "pushDropProb");
    checkProb(pushCorruptProb, "pushCorruptProb");
    checkProb(launchDelayProb, "launchDelayProb");
    VP_CHECK(taskSlowFactor >= 1.0 && std::isfinite(taskSlowFactor),
             ErrorCode::Config,
             "taskSlowFactor " << taskSlowFactor
                               << " must be finite and >= 1");
    checkCycles(launchDelayCycles, "launchDelayCycles");
    checkCycles(faultDetectCycles, "faultDetectCycles");
    for (const SmFaultEvent& e : smEvents) {
        checkCycles(e.time, "SM fault event time");
        VP_CHECK(e.sm >= 0, ErrorCode::Config,
                 "SM fault event targets negative SM " << e.sm);
        if (e.kind == SmFaultEvent::Kind::Degrade) {
            VP_CHECK(e.factor > 0.0 && e.factor <= 1.0,
                     ErrorCode::Config,
                     "degrade factor " << e.factor
                                       << " for sm " << e.sm
                                       << " outside (0, 1]");
        }
    }
    for (const ScriptedTaskFault& f : scripted) {
        VP_CHECK(f.count > 0, ErrorCode::Config,
                 "scripted fault count " << f.count << " must be > 0");
        VP_CHECK(f.atOrAfter >= 0.0, ErrorCode::Config,
                 "scripted fault time " << f.atOrAfter
                                        << " must be >= 0");
    }
    for (const DeviceFaultEvent& e : deviceEvents) {
        checkCycles(e.time, "device fault event time");
        VP_CHECK(e.device >= 0, ErrorCode::Config,
                 "device fault event targets negative device "
                     << e.device);
    }
    for (const LinkFaultEvent& e : linkEvents) {
        checkCycles(e.time, "link fault event time");
        VP_CHECK(e.src >= 0 && e.dst >= 0, ErrorCode::Config,
                 "link fault event targets negative device ("
                     << e.src << " -> " << e.dst << ")");
        if (e.kind == LinkFaultEvent::Kind::Degrade) {
            VP_CHECK(e.factor > 0.0 && e.factor <= 1.0,
                     ErrorCode::Config,
                     "link degrade factor " << e.factor
                         << " for " << e.src << " -> " << e.dst
                         << " outside (0, 1]");
        }
    }
}

void
FaultPlan::validateTargets(const std::vector<int>& smsPerDevice,
                           int stageCount) const
{
    int devices = static_cast<int>(smsPerDevice.size());
    int maxSms = 0;
    for (int s : smsPerDevice)
        maxSms = s > maxSms ? s : maxSms;
    for (const SmFaultEvent& e : smEvents) {
        VP_CHECK(e.device >= 0 && e.device < devices,
                 ErrorCode::Config,
                 "fault plan: SM event targets device " << e.device
                     << " but the run has " << devices
                     << " device(s)");
        VP_CHECK(e.sm
                     < smsPerDevice[static_cast<std::size_t>(
                         e.device)],
                 ErrorCode::Config,
                 "fault plan: SM event targets sm " << e.sm
                     << " but device " << e.device << " has "
                     << smsPerDevice[static_cast<std::size_t>(
                            e.device)]
                     << " SMs");
    }
    for (const ScriptedTaskFault& f : scripted) {
        VP_CHECK(f.sm < maxSms, ErrorCode::Config,
                 "fault plan: scripted fault targets sm " << f.sm
                     << " but no device has more than " << maxSms
                     << " SMs");
        if (stageCount >= 0) {
            VP_CHECK(f.stage < stageCount, ErrorCode::Config,
                     "fault plan: scripted fault targets stage "
                         << f.stage << " but the pipeline has "
                         << stageCount << " stages");
        }
    }
    for (const DeviceFaultEvent& e : deviceEvents) {
        VP_CHECK(e.device >= 0 && e.device < devices,
                 ErrorCode::Config,
                 "fault plan: device kill targets device "
                     << e.device << " but the run has " << devices
                     << " device(s)");
    }
    for (const LinkFaultEvent& e : linkEvents) {
        VP_CHECK(e.src >= 0 && e.src < devices && e.dst >= 0
                     && e.dst < devices,
                 ErrorCode::Config,
                 "fault plan: link event targets path " << e.src
                     << " -> " << e.dst << " but the run has "
                     << devices << " device(s)");
        VP_CHECK(e.src != e.dst, ErrorCode::Config,
                 "fault plan: link event targets self-path "
                     << e.src << " -> " << e.dst);
    }
}

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan),
      // Distinct sequence constants give each fault class an
      // independent PCG stream off the one user-visible seed.
      failRng_(plan.seed, 0x9e3779b97f4a7c15ULL),
      slowRng_(plan.seed, 0xbf58476d1ce4e5b9ULL),
      pushRng_(plan.seed, 0x94d049bb133111ebULL),
      launchRng_(plan.seed, 0xd6e8feb86659fd93ULL)
{
    scriptedLeft_.reserve(plan_.scripted.size());
    for (const ScriptedTaskFault& f : plan_.scripted)
        scriptedLeft_.push_back(f.count);
}

int
FaultInjector::fetchFaults(int stage, int sm, int items, Tick now)
{
    int fails = 0;
    for (std::size_t i = 0; i < plan_.scripted.size() && items > 0;
         ++i) {
        if (scriptedLeft_[i] <= 0)
            continue;
        const ScriptedTaskFault& f = plan_.scripted[i];
        if (now < f.atOrAfter)
            continue;
        if (f.sm >= 0 && f.sm != sm)
            continue;
        if (f.stage >= 0 && f.stage != stage)
            continue;
        int take = scriptedLeft_[i] < items ? scriptedLeft_[i] : items;
        scriptedLeft_[i] -= take;
        items -= take;
        fails += take;
    }
    if (plan_.taskFailProb > 0.0) {
        for (int i = 0; i < items; ++i)
            if (failRng_.nextBool(plan_.taskFailProb))
                ++fails;
    }
    return fails;
}

double
FaultInjector::slowFactor()
{
    if (plan_.taskSlowProb <= 0.0)
        return 1.0;
    return slowRng_.nextBool(plan_.taskSlowProb) ? plan_.taskSlowFactor
                                                 : 1.0;
}

PushFault
FaultInjector::pushFault()
{
    // One draw decides both outcomes so enabling corruption does not
    // shift the drop decisions of an otherwise-identical plan.
    if (!plan_.anyPushFaults())
        return PushFault::None;
    double u = pushRng_.nextDouble();
    if (u < plan_.pushDropProb)
        return PushFault::Drop;
    if (u < plan_.pushDropProb + plan_.pushCorruptProb)
        return PushFault::Corrupt;
    return PushFault::None;
}

Tick
FaultInjector::launchDelay()
{
    if (plan_.launchDelayProb <= 0.0)
        return 0.0;
    return launchRng_.nextBool(plan_.launchDelayProb)
               ? plan_.launchDelayCycles
               : 0.0;
}

} // namespace vp
