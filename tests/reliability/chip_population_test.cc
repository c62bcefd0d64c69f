/**
 * @file
 * Chip-population tests (the simulated 160-chip testbed).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "reliability/chip_population.h"

namespace fcos::rel {
namespace {

ChipPopulation::Config
smallPopulation()
{
    ChipPopulation::Config cfg;
    cfg.chips = 20;
    cfg.blocksPerChip = 30;
    return cfg;
}

TEST(ChipFarmTest, PopulationMatchesPaperDefaults)
{
    ChipPopulation population;
    EXPECT_EQ(population.blockCount(), 160u * 120u);
    // "a total of 3,686,400 WLs" (Section 5.1).
    EXPECT_EQ(population.totalWordlines(), 3686400u);
}

TEST(ChipFarmTest, QualitySpreadIsModest)
{
    ChipPopulation population(smallPopulation());
    double lo = 1e9, hi = 0.0;
    for (std::size_t i = 0; i < population.blockCount(); ++i) {
        double q = population.blockQuality(i);
        lo = std::min(lo, q);
        hi = std::max(hi, q);
        EXPECT_GT(q, 0.5);
        EXPECT_LT(q, 2.0);
    }
    EXPECT_LT(lo, 1.0);
    EXPECT_GT(hi, 1.0);
}

TEST(ChipFarmTest, DeterministicAcrossConstructions)
{
    ChipPopulation a(smallPopulation()), b(smallPopulation());
    for (std::size_t i = 0; i < a.blockCount(); ++i)
        EXPECT_DOUBLE_EQ(a.blockQuality(i), b.blockQuality(i));
}

TEST(ChipFarmTest, AverageRberNearTypicalBlock)
{
    ChipPopulation population(smallPopulation());
    OperatingCondition c{10000, 12.0, true};
    double avg = population.averageRber(nand::ProgramMode::SlcRegular, c);
    double typical = population.model().rberSlc(c, 1.0);
    EXPECT_GT(avg, typical * 0.5);
    EXPECT_LT(avg, typical * 3.0);
}

TEST(ChipFarmTest, EspPercentilesOrdered)
{
    ChipPopulation population(smallPopulation());
    OperatingCondition c{10000, 12.0, false};
    auto p = population.espRber(1.3, c);
    EXPECT_LE(p.best, p.median);
    EXPECT_LE(p.median, p.worst);
    EXPECT_GT(p.worst, p.best); // real spread
}

TEST(ChipFarmTest, CampaignCountsMatchExpectation)
{
    ChipPopulation population(smallPopulation());
    OperatingCondition c{10000, 12.0, false};
    nand::PageMeta meta;
    meta.mode = nand::ProgramMode::SlcRegular;
    meta.randomized = false;

    auto camp = population.runCampaign(meta, c, 100000000ULL);
    EXPECT_EQ(camp.bits, 100000000ULL);
    EXPECT_GT(camp.expectedErrors, 1.0);
    double sd = std::sqrt(camp.expectedErrors);
    EXPECT_NEAR(static_cast<double>(camp.errors), camp.expectedErrors,
                6.0 * sd);
}

TEST(ChipFarmTest, EspCampaignAtOperatingPointIsErrorFree)
{
    // The paper's validation: > 4.83e11 bits through ESP-programmed
    // wordlines under worst-case conditions, zero errors observed.
    ChipPopulation population;
    OperatingCondition c{10000, 12.0, false};
    nand::PageMeta meta;
    meta.mode = nand::ProgramMode::SlcEsp;
    meta.espFactor = 2.0;
    auto camp = population.runCampaign(meta, c, 483000000000ULL);
    EXPECT_EQ(camp.errors, 0u);
    EXPECT_LT(camp.expectedErrors, 0.1);
    // Statistical bound: RBER < 2.07e-12 (Section 5.2).
    EXPECT_LT(camp.rberBound(), 2.08e-12);
}

} // namespace
} // namespace fcos::rel
