/**
 * @file
 * Pins the shared paper-figure tables (platforms/reports) as goldens:
 * the Table 1 configuration tables, the Figure 12 MWS latency table,
 * the Figure 7 timeline, and the Figure 17/18 sweep tables (reduced
 * grids through the same builders the benches print with the full
 * paper grids). Any drift in configuration constants, the calibrated
 * model curves, or the engine's platform timelines now fails a test
 * instead of silently changing bench output.
 */

#include <gtest/gtest.h>

#include "platforms/reports.h"
#include "tests/support/golden.h"

namespace fcos::plat {
namespace {

TEST(ReportGoldenTest, Tab01SsdTableIsPinned)
{
    TablePrinter t = tab01SsdTable(ssd::SsdConfig::table1());
    EXPECT_TRUE(test::MatchesGolden(t.toString(), "golden/tab01_ssd.txt"));
}

TEST(ReportGoldenTest, Tab01HostTableIsPinned)
{
    TablePrinter t = tab01HostTable(host::HostConfig{});
    EXPECT_TRUE(
        test::MatchesGolden(t.toString(), "golden/tab01_host.txt"));
}

TEST(ReportGoldenTest, Fig12MwsLatencyTableIsPinned)
{
    TablePrinter t = fig12MwsLatencyTable();
    EXPECT_TRUE(test::MatchesGolden(t.toString(),
                                    "golden/fig12_mws_latency.txt"));
}

TEST(ReportGoldenTest, Fig07TimelineTableIsPinned)
{
    // The default engine path: this golden pins the engine-produced
    // Figure 7 timeline (and through it the paper's 471/431/335-us
    // anchors, which runner_test checks numerically).
    PlatformRunner runner(ssd::SsdConfig::figure7());
    TablePrinter t = fig07TimelineTable(runner);
    EXPECT_TRUE(
        test::MatchesGolden(t.toString(), "golden/fig07_timeline.txt"));
}

/** Reduced sweep grids: one small point per workload family keeps the
 *  pinned tables fast while exercising every series builder. */
std::vector<SweepSeries>
reducedSweep()
{
    EvaluationSweep sweep;
    return {sweep.bmiSeries({1, 3}), sweep.imsSeries({10000}),
            sweep.kcsSeries({8})};
}

TEST(ReportGoldenTest, Fig17SpeedupTableIsPinned)
{
    TablePrinter t = fig17SpeedupTable(reducedSweep());
    EXPECT_TRUE(test::MatchesGolden(t.toString(),
                                    "golden/fig17_performance.txt"));
}

TEST(ReportGoldenTest, Fig18EnergyTableIsPinned)
{
    TablePrinter t = fig18EnergyTable(reducedSweep());
    EXPECT_TRUE(
        test::MatchesGolden(t.toString(), "golden/fig18_energy.txt"));
}

TEST(ReportGoldenTest, Fig08RberPanelsArePinned)
{
    // All four panels through the same builder and reduced population
    // the bench prints with — drift in the V_TH model curves fails here.
    rel::ChipPopulation population(fig08PopulationConfig());
    EXPECT_TRUE(test::MatchesGolden(fig08RberReport(population),
                                    "golden/fig08_rber.txt"));
}

/** Reduced chip population for the Figure 11 pins: same builders as
 *  the bench (which uses the full 160-chip population). */
rel::ChipPopulation
fig11ReducedPopulation()
{
    rel::ChipPopulation::Config cfg;
    cfg.chips = 20;
    cfg.blocksPerChip = 30;
    return rel::ChipPopulation(cfg);
}

TEST(ReportGoldenTest, Fig11EspTableIsPinned)
{
    rel::ChipPopulation population = fig11ReducedPopulation();
    rel::OperatingCondition worst{10000, 12.0, false};
    EXPECT_TRUE(
        test::MatchesGolden(fig11EspTable(population, worst).toString(),
                            "golden/fig11_esp.txt"));
}

TEST(ReportGoldenTest, Fig11CampaignTableIsPinned)
{
    rel::ChipPopulation population = fig11ReducedPopulation();
    rel::OperatingCondition worst{10000, 12.0, false};
    EXPECT_TRUE(test::MatchesGolden(
        fig11CampaignTable(population, worst, 10000000000ULL).toString(),
        "golden/fig11_campaign.txt"));
}

TEST(ReportGoldenTest, Fig13InterMwsTableIsPinned)
{
    EXPECT_TRUE(test::MatchesGolden(fig13InterMwsTable().toString(),
                                    "golden/fig13_inter_mws.txt"));
}

TEST(ReportGoldenTest, Fig14PowerTableIsPinned)
{
    EXPECT_TRUE(test::MatchesGolden(fig14PowerTable().toString(),
                                    "golden/fig14_power.txt"));
}

// The ablation benches print these builders verbatim; pinning them
// here is what keeps the ablation conclusions from drifting silently.

TEST(ReportGoldenTest, AblationBlockLimitTableIsPinned)
{
    EXPECT_TRUE(test::MatchesGolden(ablationBlockLimitTable().toString(),
                                    "golden/ablation_block_limit.txt"));
}

TEST(ReportGoldenTest, AblationDeMorganTableIsPinned)
{
    EXPECT_TRUE(test::MatchesGolden(ablationDeMorganTable().toString(),
                                    "golden/ablation_demorgan.txt"));
}

TEST(ReportGoldenTest, AblationMlcLsbTableIsPinned)
{
    EXPECT_TRUE(test::MatchesGolden(ablationMlcLsbTable().toString(),
                                    "golden/ablation_mlc_lsb.txt"));
}

TEST(ReportGoldenTest, AblationPlacementTableIsPinned)
{
    // Runs the functional drive (deterministic seeds); also assert
    // the headline claim so a silent correctness break cannot hide
    // behind a golden update.
    AblationPlacementCost coloc = ablationPlacementQuery(true, 8);
    AblationPlacementCost scattered = ablationPlacementQuery(false, 8);
    EXPECT_TRUE(coloc.correct);
    EXPECT_TRUE(scattered.correct);
    EXPECT_EQ(coloc.commandsPerPage, 1u);
    EXPECT_EQ(scattered.commandsPerPage, 8u);
    EXPECT_TRUE(test::MatchesGolden(ablationPlacementTable().toString(),
                                    "golden/ablation_placement.txt"));
}

TEST(ReportGoldenTest, AblationXorEncryptionTableIsPinned)
{
    AblationXorStats stats;
    TablePrinter t = ablationXorEncryptionTable(&stats);
    EXPECT_TRUE(stats.encryptChanges);
    EXPECT_TRUE(stats.roundTrips);
    EXPECT_EQ(stats.sensesPerPage, 2u);
    EXPECT_TRUE(test::MatchesGolden(
        t.toString(), "golden/ablation_xor_encryption.txt"));
}

TEST(ReportGoldenTest, AblationEccRandomizationTablesArePinned)
{
    AblationEccStats ecc;
    TablePrinter ecc_table = ablationEccTable(&ecc);
    EXPECT_EQ(ecc.acceptedCorrect, 0);
    EXPECT_EQ(ecc.rejected + ecc.miscorrected, ecc.trials);
    EXPECT_TRUE(test::MatchesGolden(ecc_table.toString(),
                                    "golden/ablation_ecc.txt"));

    int derand_ok = -1;
    TablePrinter rnd_table = ablationRandomizationTable(&derand_ok);
    EXPECT_EQ(derand_ok, 0);
    EXPECT_TRUE(test::MatchesGolden(
        rnd_table.toString(), "golden/ablation_randomization.txt"));
}

} // namespace
} // namespace fcos::plat
