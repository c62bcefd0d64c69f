/**
 * @file
 * Firmware request-path tests (Section 6.3): fc_write and fc_read run
 * on the drive's one timeline and energy ledger, the engine's.
 */

#include <gtest/gtest.h>

#include "core/drive.h"
#include "tests/support/random_fixture.h"

namespace fcos::core {
namespace {

class FirmwareTest : public test::RandomTest
{
};

TEST_F(FirmwareTest, WriteAdvancesClockPastEspProgram)
{
    FlashCosmosDrive::Config cfg;
    cfg.dies = 4;
    FlashCosmosDrive drive(cfg);
    BitVector data = randomVec(200); // one page
    FlashCosmosDrive::WriteOptions opts;
    opts.group = 1;
    VectorId id = drive.fcWrite(data, opts);
    // At minimum: the channel data-in plus one ESP program.
    EXPECT_GE(drive.now(), cfg.timings.tProgEsp);
    EXPECT_EQ(drive.readVector(id), data);
}

TEST_F(FirmwareTest, AndReadIsTimedAndBooksMwsEnergy)
{
    FlashCosmosDrive::Config cfg;
    cfg.dies = 4;
    FlashCosmosDrive drive(cfg);
    FlashCosmosDrive::WriteOptions opts;
    opts.group = 2;
    // Eight operands fill one 8-wordline string: one MWS per page.
    std::vector<BitVector> data;
    std::vector<Expr> leaves;
    for (int i = 0; i < 8; ++i) {
        data.push_back(randomVec(1000));
        leaves.push_back(Expr::leaf(drive.fcWrite(data.back(), opts)));
    }
    const Time writes_done = drive.now();

    FlashCosmosDrive::ReadStats stats;
    BitVector result = drive.fcRead(Expr::And(leaves), &stats);
    BitVector expected = data[0];
    for (int i = 1; i < 8; ++i)
        expected &= data[i];
    EXPECT_EQ(result, expected);
    EXPECT_GT(stats.makespan, 0u);
    EXPECT_EQ(drive.now(), writes_done + stats.makespan);
    EXPECT_EQ(stats.mwsCommands, stats.resultPages);

    const ssd::EnergyMeter &meter = drive.engine().energy();
    EXPECT_GT(meter.get(ssd::EnergyComponent::NandMws), 0.0);
    EXPECT_GT(meter.get(ssd::EnergyComponent::NandProgram),
              meter.get(ssd::EnergyComponent::NandMws));
}

} // namespace
} // namespace fcos::core
