#include "util/rng.h"

#include <algorithm>

namespace fcos {

namespace {

// MT19937-64 parameters (Matsumoto & Nishimura; the std::mt19937_64
// instantiation of std::mersenne_twister_engine).
constexpr std::size_t kN = 312;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kInitMult = 6364136223846793005ULL;

/** New state word from (mt[k], mt[k+1], mt[k+m]); the matrix term is
 *  a mask, not a branch on the low bit. */
inline std::uint64_t
twist(std::uint64_t cur, std::uint64_t next, std::uint64_t far)
{
    const std::uint64_t y = (cur & kUpperMask) | (next & kLowerMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

inline std::uint64_t
temper(std::uint64_t y)
{
    y ^= (y >> 29) & 0x5555555555555555ULL;
    y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
    y ^= (y << 37) & 0xFFF7EEE000000000ULL;
    return y ^ (y >> 43);
}

} // namespace

// The twist and temper loops vectorize; on x86-64 ELF targets the
// loader picks the widest clone the CPU runs (pure integer arithmetic,
// so every clone emits the same words).
#if defined(__x86_64__) && defined(__ELF__) &&                             \
    (defined(__GNUC__) || defined(__clang__))
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
void
Rng::fillSeeded(std::uint64_t seed, std::uint64_t *__restrict out,
                std::size_t n)
{
    if (n == 0)
        return;
    // Output k of a refill reads state words k, k+1 and k+m, so the
    // first n <= m outputs need only n + m seeded words.
    std::uint64_t mt[kN];
    const std::size_t seeded = n <= kM ? n + kM : kN;
    mt[0] = seed;
    for (std::size_t i = 1; i < seeded; ++i)
        mt[i] = kInitMult * (mt[i - 1] ^ (mt[i - 1] >> 62)) + i;

    // Each refill twists, in order, only the prefix it emits: word k
    // depends on words before it and on untwisted words after it, so a
    // prefix twist is exactly the prefix of a full one.
    for (;;) {
        const std::size_t r = std::min(n, kN);
        const std::size_t lo = std::min(r, kN - kM);
        for (std::size_t k = 0; k < lo; ++k)
            mt[k] = twist(mt[k], mt[k + 1], mt[k + kM]);
        const std::size_t hi = std::min(r, kN - 1);
        for (std::size_t k = kN - kM; k < hi; ++k)
            mt[k] = twist(mt[k], mt[k + 1], mt[k - (kN - kM)]);
        if (r == kN)
            mt[kN - 1] = twist(mt[kN - 1], mt[0], mt[kM - 1]);
        for (std::size_t k = 0; k < r; ++k)
            out[k] = temper(mt[k]);
        n -= r;
        if (n == 0)
            return;
        out += r;
    }
}

} // namespace fcos
