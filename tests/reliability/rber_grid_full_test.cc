/**
 * @file
 * Nightly-scale reliability sweep (label: sweep-full): the *full*
 * Figure 8 cross product — every (P/E, retention) operating point —
 * evaluated against the simulated 160-chip population, not only the
 * coarser subset the default sweeps cover. Population statistics
 * (worst/median/best ESP blocks, mode ordering, campaign error draws)
 * must behave at every point.
 */

#include <gtest/gtest.h>

#include "reliability/chip_population.h"
#include "tests/support/grids.h"

namespace fcos::rel {
namespace {

using test::GridPoint;

/** One shared population: construction samples 19,200 block qualities. */
const ChipPopulation &
population()
{
    static const ChipPopulation *f = new ChipPopulation();
    return *f;
}

class FullGridPopulationTest : public ::testing::TestWithParam<GridPoint>
{};

TEST_P(FullGridPopulationTest, ModeOrderingOverPopulation)
{
    const GridPoint g = GetParam();
    OperatingCondition c{g.pec, g.months, false};
    double slc = population().averageRber(nand::ProgramMode::SlcRegular, c);
    double mlc = population().averageRber(nand::ProgramMode::Mlc, c);
    double esp = population().averageRber(nand::ProgramMode::SlcEsp, c);
    // Population averages keep the per-block ordering: ESP <= SLC,
    // SLC no worse than MLC (small tolerance for the tail average).
    EXPECT_LE(esp, slc * (1.0 + 1e-9));
    EXPECT_LE(slc, mlc * 1.05);
    for (double v : {slc, mlc, esp}) {
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 0.5);
    }
}

TEST_P(FullGridPopulationTest, EspSpreadOrderedAndReliable)
{
    const GridPoint g = GetParam();
    OperatingCondition c{g.pec, g.months, false};
    ChipPopulation::EspPoint p = population().espRber(2.0, c);
    EXPECT_LE(p.best, p.median);
    EXPECT_LE(p.median, p.worst);
    // The paper's headline: at the full 2.0x extension even the worst
    // block of the population is effectively error-free everywhere on
    // the grid.
    EXPECT_LT(p.worst, 1e-9) << "pec=" << g.pec
                             << " months=" << g.months;
}

TEST_P(FullGridPopulationTest, CampaignErrorDrawsMatchAnalyticRate)
{
    const GridPoint g = GetParam();
    OperatingCondition c{g.pec, g.months, false};
    nand::PageMeta meta;
    meta.mode = nand::ProgramMode::SlcEsp;
    meta.espFactor = 2.0;
    meta.randomized = false;
    ChipPopulation::Campaign camp =
        population().runCampaign(meta, c, /*total_bits=*/1ULL << 30);
    EXPECT_EQ(camp.bits, 1ULL << 30);
    // ESP 2.0 reproduces the ">4.83e11 bits, zero errors" property at
    // campaign scale on every grid point.
    EXPECT_EQ(camp.errors, 0u);
    EXPECT_LT(camp.expectedErrors, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Figure8FullGrid, FullGridPopulationTest,
                         ::testing::ValuesIn(test::figure8Grid()),
                         test::gridPointName);

} // namespace
} // namespace fcos::rel
