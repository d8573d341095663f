#include "common/rng.hh"

namespace vp {

Rng::Rng(std::uint64_t seed, std::uint64_t seq)
    : state_(0), inc_((seq << 1u) | 1u)
{
    nextU32();
    state_ += seed;
    nextU32();
}

double
Rng::nextDouble()
{
    return nextU32() * (1.0 / 4294967296.0);
}

double
Rng::nextRange(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

double
Rng::nextGaussian()
{
    double sum = 0.0;
    for (int i = 0; i < 12; ++i)
        sum += nextDouble();
    return sum - 6.0;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

} // namespace vp
