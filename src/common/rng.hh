/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The whole reproduction must be bit-reproducible across runs and
 * platforms, so we carry our own PCG32 generator instead of relying on
 * std::mt19937 distributions (whose results are implementation-defined
 * for floating point).
 */

#ifndef VP_COMMON_RNG_HH
#define VP_COMMON_RNG_HH

#include <cstdint>

namespace vp {

/**
 * PCG32 generator (O'Neill, 2014): small, fast, statistically solid,
 * and fully deterministic given (seed, sequence).
 */
class Rng
{
  public:
    /** Construct from a seed and an optional stream-selection value. */
    explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t seq = 0xda3e39cb94b95bdbULL);

    /** Next uniformly distributed 32-bit value. */
    std::uint32_t
    nextU32()
    {
        std::uint64_t old = state_;
        state_ = old * 6364136223846793005ULL + inc_;
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
    }

    /**
     * Uniform integer in [0, bound), bias-free via rejection. Inline,
     * so that a constant bound folds both divisions.
     */
    std::uint32_t
    nextBelow(std::uint32_t bound)
    {
        if (bound == 0)
            return 0;
        // Rejection sampling to avoid modulo bias.
        std::uint32_t threshold = (-bound) % bound;
        for (;;) {
            std::uint32_t r = nextU32();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform double in [lo, hi). */
    double nextRange(double lo, double hi);

    /** Approximate standard normal via sum of uniforms (CLT, 12x). */
    double nextGaussian();

    /** True with probability @p p. */
    bool nextBool(double p);

  private:
    std::uint64_t state_;
    std::uint64_t inc_;
};

} // namespace vp

#endif // VP_COMMON_RNG_HH
