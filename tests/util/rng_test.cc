/**
 * @file
 * Deterministic RNG tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "util/rng.h"

namespace fcos {
namespace {

TEST(RngTest, SeededStreamsReproduce)
{
    Rng a = Rng::seeded(42), b = Rng::seeded(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a = Rng::seeded(1), b = Rng::seeded(2);
    int same = 0;
    for (int i = 0; i < 50; ++i) {
        if (a.nextU64() == b.nextU64())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkIsDeterministicAndDecorrelated)
{
    Rng parent = Rng::seeded(7);
    Rng c1 = parent.fork(0);
    Rng c2 = parent.fork(1);
    Rng c1_again = Rng::seeded(7).fork(0);
    EXPECT_EQ(c1.nextU64(), c1_again.nextU64());
    EXPECT_NE(c1.nextU64(), c2.nextU64());
}

TEST(RngTest, FillSeededEqualsStdMt19937_64)
{
    // fillSeeded seeds and twists only a prefix of the state for short
    // fills and refills in 312-word blocks, so sweep every length
    // across the 156/157 and 312/313 boundaries (and into the third
    // refill), plus a Table-1 page and one word more.
    std::vector<std::uint64_t> seeds = {0, 1, ~0ULL};
    for (std::uint64_t i = 0; i < 50; ++i)
        seeds.push_back(Rng::mix(0xF1A5C05ULL, i));
    std::vector<std::size_t> lengths;
    for (std::size_t n = 1; n <= 700; ++n)
        lengths.push_back(n);
    lengths.push_back(2048);
    lengths.push_back(2049);

    std::vector<std::uint64_t> out(2049);
    for (std::uint64_t seed : seeds) {
        std::mt19937_64 ref_engine(seed);
        std::vector<std::uint64_t> ref(2049);
        for (auto &w : ref)
            w = ref_engine();
        for (std::size_t n : lengths) {
            Rng::fillSeeded(seed, out.data(), n);
            ASSERT_TRUE(std::equal(out.begin(), out.begin() + n,
                                   ref.begin()))
                << "seed " << seed << ", n " << n;
        }
    }
    // ... and the same words the seeded Rng hands out one at a time.
    Rng r = Rng::seeded(42);
    Rng::fillSeeded(42, out.data(), 5);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(out[i], r.nextU64());
}

TEST(RngTest, FillSeededOfNothingWritesNothing)
{
    std::uint64_t sentinel = 0xDEADBEEF;
    Rng::fillSeeded(7, &sentinel, 0);
    EXPECT_EQ(sentinel, 0xDEADBEEFu);
}

TEST(RngTest, BoundedStaysInRange)
{
    Rng rng = Rng::seeded(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(RngTest, BernoulliEdgeCases)
{
    Rng rng = Rng::seeded(4);
    for (int i = 0; i < 20; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(RngTest, BinomialMatchesMean)
{
    Rng rng = Rng::seeded(5);
    double total = 0.0;
    for (int i = 0; i < 200; ++i)
        total += static_cast<double>(rng.binomial(1000, 0.1));
    EXPECT_NEAR(total / 200.0, 100.0, 5.0);
    EXPECT_EQ(rng.binomial(0, 0.5), 0u);
    EXPECT_EQ(rng.binomial(10, 0.0), 0u);
    EXPECT_EQ(rng.binomial(10, 1.0), 10u);
}

TEST(RngTest, PoissonMatchesMean)
{
    Rng rng = Rng::seeded(6);
    double total = 0.0;
    for (int i = 0; i < 500; ++i)
        total += static_cast<double>(rng.poisson(4.0));
    EXPECT_NEAR(total / 500.0, 4.0, 0.5);
    EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(RngTest, GaussianMoments)
{
    Rng rng = Rng::seeded(8);
    double sum = 0.0, sq = 0.0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        double x = rng.gaussian(2.0, 3.0);
        sum += x;
        sq += x * x;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.2);
    EXPECT_NEAR(var, 9.0, 1.0);
}

} // namespace
} // namespace fcos
