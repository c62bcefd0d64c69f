/**
 * @file
 * Deterministic random number generation for simulation and Monte Carlo.
 *
 * All randomness in the library flows through Rng so that every
 * experiment is reproducible from a single seed. Child generators can be
 * forked deterministically per component (per chip, per block, ...).
 */

#ifndef FCOS_UTIL_RNG_H
#define FCOS_UTIL_RNG_H

#include <cstddef>
#include <cstdint>
#include <random>

namespace fcos {

class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 1) : engine_(seed) {}

    /** Uniform 64-bit word. */
    std::uint64_t nextU64() { return engine_(); }

    /** Uniform integer in [0, bound). @p bound must be > 0. */
    std::uint64_t nextBounded(std::uint64_t bound)
    {
        return std::uniform_int_distribution<std::uint64_t>(
            0, bound - 1)(engine_);
    }

    /** Uniform double in [0, 1). */
    double nextDouble()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    }

    /** Bernoulli trial. */
    bool bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /** Normal sample. */
    double gaussian(double mean, double sigma)
    {
        return std::normal_distribution<double>(mean, sigma)(engine_);
    }

    /** Lognormal sample (parameters of the underlying normal). */
    double lognormal(double mu, double sigma)
    {
        return std::lognormal_distribution<double>(mu, sigma)(engine_);
    }

    /**
     * Poisson sample. Used to draw per-wordline raw bit-error *counts*
     * from an analytic error rate without materializing individual
     * cells.
     */
    std::uint64_t poisson(double mean)
    {
        if (mean <= 0.0)
            return 0;
        return std::poisson_distribution<std::uint64_t>(mean)(engine_);
    }

    /** Binomial sample: number of successes among n Bernoulli(p) trials. */
    std::uint64_t binomial(std::uint64_t n, double p)
    {
        if (n == 0 || p <= 0.0)
            return 0;
        if (p >= 1.0)
            return n;
        return std::binomial_distribution<std::uint64_t>(
            static_cast<long long>(n), p)(engine_);
    }

    /**
     * Splitmix64 mixing of (seed, stream): the scalar seed a fork()ed
     * child is constructed from. Exposed so descriptors that carry a
     * single seed word (nand::PageImage) can reproduce the same
     * decorrelated per-stream sequences.
     */
    static std::uint64_t mix(std::uint64_t seed, std::uint64_t stream_id)
    {
        std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream_id + 1);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

    /**
     * Deterministically derive a child generator. Mixes the stream id via
     * splitmix64 so children with adjacent ids are decorrelated.
     */
    Rng fork(std::uint64_t stream_id) const
    {
        return Rng(mix(seed_mix_, stream_id));
    }

    /**
     * Write the first @p n words of `std::mt19937_64(seed)` to @p out:
     * exactly what @p n calls of `seeded(seed).nextU64()` return.
     *
     * The single-use bulk path for seeded pages. It twists branch-free
     * and tempers straight into @p out, and for n <= 156 it seeds and
     * twists only the state words those outputs read, so a 4-word page
     * costs a few hundred cycles, not a full 312-word refill.
     */
    static void fillSeeded(std::uint64_t seed, std::uint64_t *out,
                           std::size_t n);

    /** Remember the construction seed for fork() mixing. */
    static Rng seeded(std::uint64_t seed)
    {
        Rng r(seed);
        r.seed_mix_ = seed;
        return r;
    }

  private:
    std::mt19937_64 engine_;
    std::uint64_t seed_mix_ = 0x6A09E667F3BCC908ULL;
};

} // namespace fcos

#endif // FCOS_UTIL_RNG_H
