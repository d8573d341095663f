#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vp {

Histogram::Histogram(double lo, double growth)
    : lo_(lo > 0.0 ? lo : 1.0),
      growth_(growth > 1.0 ? growth : 1.25),
      logGrowth_(std::log(growth_ > 1.0 ? growth_ : 1.25))
{
}

std::size_t
Histogram::bucketIndex(double v) const
{
    if (!(v > lo_))
        return 0;
    // Candidate index from logs, then fix up against FP error so the
    // boundary contract — upperBound(i) inclusive — holds exactly.
    double raw = std::log(v / lo_) / logGrowth_;
    std::size_t i = static_cast<std::size_t>(std::ceil(raw));
    if (i == 0)
        i = 1;
    while (i > 1 && v <= upperBound(i - 1))
        --i;
    while (v > upperBound(i))
        ++i;
    return i;
}

double
Histogram::upperBound(std::size_t i) const
{
    return lo_ * std::pow(growth_, static_cast<double>(i));
}

double
Histogram::lowerBound(std::size_t i) const
{
    if (i == 0)
        return -std::numeric_limits<double>::infinity();
    return lo_ * std::pow(growth_, static_cast<double>(i) - 1.0);
}

void
Histogram::add(double v)
{
    std::size_t i = bucketIndex(v);
    if (i >= buckets_.size())
        buckets_.resize(i + 1, 0);
    ++buckets_[i];
    acc_.add(v);
}

double
Histogram::percentile(double p) const
{
    if (acc_.empty())
        return 0.0;
    p = std::min(std::max(p, 0.0), 1.0);
    double target = p * static_cast<double>(acc_.count());
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        double before = static_cast<double>(cum);
        cum += buckets_[i];
        if (static_cast<double>(cum) >= target) {
            // Interpolate within the bucket, clamped to the observed
            // range so estimates never leave [min, max].
            double loB = i == 0 ? acc_.min() : lowerBound(i);
            double hiB = upperBound(i);
            double frac =
                (target - before) / static_cast<double>(buckets_[i]);
            double est = loB + frac * (hiB - loB);
            return std::min(std::max(est, acc_.min()), acc_.max());
        }
    }
    return acc_.max();
}

} // namespace vp
