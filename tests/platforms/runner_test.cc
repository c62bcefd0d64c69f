/**
 * @file
 * Platform-runner tests: Figure 7 timeline shape, platform ordering,
 * and the Flash-Cosmos sense-count arithmetic.
 */

#include <gtest/gtest.h>

#include "platforms/runner.h"

namespace fcos::plat {
namespace {

/** The Figure 7 micro-workload: bitwise OR of three 1-MiB vectors. */
wl::Workload
figure7Workload()
{
    wl::Workload w;
    w.name = "fig7";
    w.paramName = "-";
    wl::OpBatch b;
    b.andOperands = 0;
    b.orOperands = 3;
    b.operandBytes = 1ULL << 20;
    b.resultToHost = true;
    b.hostPostProcess = false;
    w.batches.push_back(b);
    return w;
}

TEST(FcSensesTest, PureAndChunksByStringLength)
{
    EXPECT_EQ(PlatformRunner::fcSensesPerRow(1, 0, 48, 4), 1u);
    EXPECT_EQ(PlatformRunner::fcSensesPerRow(48, 0, 48, 4), 1u);
    EXPECT_EQ(PlatformRunner::fcSensesPerRow(49, 0, 48, 4), 2u);
    EXPECT_EQ(PlatformRunner::fcSensesPerRow(1095, 0, 48, 4), 23u);
}

TEST(FcSensesTest, PureOrUsesInverseStorage)
{
    // Inverse-stored operands: intra-block MWS per string (Section 6.1).
    EXPECT_EQ(PlatformRunner::fcSensesPerRow(0, 3, 48, 4), 1u);
    EXPECT_EQ(PlatformRunner::fcSensesPerRow(0, 48, 48, 4), 1u);
    EXPECT_EQ(PlatformRunner::fcSensesPerRow(0, 96, 48, 4), 2u);
}

TEST(FcSensesTest, KcsFusionRidesAlong)
{
    // k <= 48 plus the clique vector: one combined command.
    EXPECT_EQ(PlatformRunner::fcSensesPerRow(32, 1, 48, 4), 1u);
    // k = 64: two AND commands plus an OR-merge command.
    EXPECT_EQ(PlatformRunner::fcSensesPerRow(64, 1, 48, 4), 3u);
}

TEST(FcSensesTest, EmptyBatchSensesNothing)
{
    EXPECT_EQ(PlatformRunner::fcSensesPerRow(0, 0, 48, 4), 0u);
}

class RunnerTest : public ::testing::Test
{
  protected:
    PlatformRunner fig7{ssd::SsdConfig::figure7()};
    PlatformRunner table1{ssd::SsdConfig::table1()};
};

TEST_F(RunnerTest, Figure7TimelineShape)
{
    // Paper: OSP 471 us (external I/O bound), ISP 431 us (internal I/O
    // bound), IFP(=ParaBit) 335 us (sensing bound). The engine's
    // timeline must land on the same anchors.
    wl::Workload w = figure7Workload();
    RunResult osp = fig7.run(PlatformKind::Osp, w);
    RunResult isp = fig7.run(PlatformKind::Isp, w);
    RunResult ifp = fig7.run(PlatformKind::ParaBit, w);

    EXPECT_NEAR(timeToUs(osp.makespan), 471.0, 471.0 * 0.08);
    EXPECT_NEAR(timeToUs(isp.makespan), 431.0, 431.0 * 0.08);
    EXPECT_NEAR(timeToUs(ifp.makespan), 335.0, 335.0 * 0.08);
    EXPECT_GT(osp.makespan, isp.makespan);
    EXPECT_GT(isp.makespan, ifp.makespan);
}

TEST_F(RunnerTest, Figure7Bottlenecks)
{
    wl::Workload w = figure7Workload();
    RunResult osp = fig7.run(PlatformKind::Osp, w);
    // OSP: the external link is the busiest resource.
    EXPECT_GT(osp.externalBusy, osp.channelBusy);
    RunResult isp = fig7.run(PlatformKind::Isp, w);
    // ISP: the per-channel bus dominates.
    EXPECT_GT(isp.channelBusy, isp.externalBusy);
}

TEST_F(RunnerTest, FlashCosmosWinsOnManyOperandAnd)
{
    // A BMI-like query: FC senses ceil(240/48)=5 MWS per row where PB
    // senses 240 pages.
    wl::Workload w = wl::makeBmi(8, 80000000ULL); // 10-MB vectors
    RunResult fc = table1.run(PlatformKind::FlashCosmos, w);
    RunResult pb = table1.run(PlatformKind::ParaBit, w);
    RunResult isp = table1.run(PlatformKind::Isp, w);
    RunResult osp = table1.run(PlatformKind::Osp, w);

    EXPECT_LT(fc.makespan, pb.makespan);
    EXPECT_LT(pb.makespan, isp.makespan);
    EXPECT_LT(isp.makespan, osp.makespan);
    // Sense-operation accounting: PB senses every operand.
    EXPECT_GT(pb.senseOps, 40 * fc.senseOps);
}

TEST_F(RunnerTest, EnergyOrderingMatchesFigure18)
{
    wl::Workload w = wl::makeBmi(8, 80000000ULL);
    double fc = table1.run(PlatformKind::FlashCosmos, w).energyJ;
    double pb = table1.run(PlatformKind::ParaBit, w).energyJ;
    double isp = table1.run(PlatformKind::Isp, w).energyJ;
    double osp = table1.run(PlatformKind::Osp, w).energyJ;
    EXPECT_LT(fc, pb);
    EXPECT_LT(pb, isp);
    EXPECT_LT(isp, osp);
}

TEST_F(RunnerTest, FcAndPbConvergeOnFewOperandLargeResult)
{
    // IMS: 3 operands, huge result — transfer dominates, FC ~ PB
    // (Section 8.1, sixth observation).
    wl::Workload w = wl::makeIms(2000);
    Time fc = table1.run(PlatformKind::FlashCosmos, w).makespan;
    Time pb = table1.run(PlatformKind::ParaBit, w).makespan;
    EXPECT_LT(static_cast<double>(pb) / static_cast<double>(fc), 1.25);
}

TEST_F(RunnerTest, OspInsensitiveToOperandFusion)
{
    // OSP moves every operand regardless of AND/OR structure.
    wl::Workload and_w = wl::makeKcs(8, 4, 8000000ULL);
    wl::Workload or_heavy = and_w;
    for (auto &b : or_heavy.batches) {
        b.andOperands = 4;
        b.orOperands = 5;
    }
    Time t1 = table1.run(PlatformKind::Osp, and_w).makespan;
    Time t2 = table1.run(PlatformKind::Osp, or_heavy).makespan;
    EXPECT_EQ(t1, t2);
}

TEST_F(RunnerTest, ResultsAreDeterministic)
{
    wl::Workload w = wl::makeKcs(16, 8, 8000000ULL);
    RunResult a = table1.run(PlatformKind::FlashCosmos, w);
    RunResult b = table1.run(PlatformKind::FlashCosmos, w);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_DOUBLE_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.senseOps, b.senseOps);
}

TEST_F(RunnerTest, EnergyMeterHasExpectedComponents)
{
    wl::Workload w = wl::makeKcs(16, 8, 8000000ULL);
    RunResult fc = table1.run(PlatformKind::FlashCosmos, w);
    EXPECT_GT(fc.meter.get(ssd::EnergyComponent::NandMws), 0.0);
    EXPECT_DOUBLE_EQ(fc.meter.get(ssd::EnergyComponent::IspAccel), 0.0);
    EXPECT_GT(fc.meter.get(ssd::EnergyComponent::Controller), 0.0);

    RunResult isp = table1.run(PlatformKind::Isp, w);
    EXPECT_GT(isp.meter.get(ssd::EnergyComponent::IspAccel), 0.0);
    EXPECT_DOUBLE_EQ(isp.meter.get(ssd::EnergyComponent::NandMws), 0.0);
}

TEST(PlatformNameTest, AllNamed)
{
    EXPECT_STREQ(platformName(PlatformKind::Osp), "OSP");
    EXPECT_STREQ(platformName(PlatformKind::Isp), "ISP");
    EXPECT_STREQ(platformName(PlatformKind::ParaBit), "PB");
    EXPECT_STREQ(platformName(PlatformKind::FlashCosmos), "FC");
}

} // namespace
} // namespace fcos::plat
