/**
 * @file
 * Firmware-level workload integration: a miniature BMI query through
 * the full stack (fc_write with placement -> planner -> MWS chains on
 * the dies -> streamed result), checking functional results and the
 * drive's timeline and energy ledger against each other.
 */

#include <gtest/gtest.h>

#include "core/drive.h"
#include "util/rng.h"

namespace fcos {
namespace {

using core::Expr;
using core::FlashCosmosDrive;

TEST(FirmwareWorkloadTest, MiniBitmapIndexOnTheDriveTimeline)
{
    FlashCosmosDrive::Config cfg;
    cfg.dies = 4;
    cfg.geometry.blocksPerPlane = 64;
    FlashCosmosDrive drive(cfg);

    Rng rng = Rng::seeded(88);
    const std::size_t users = 4000;
    const int days = 16;
    FlashCosmosDrive::WriteOptions group;
    group.group = 1;

    std::vector<BitVector> activity;
    std::vector<Expr> leaves;
    for (int d = 0; d < days; ++d) {
        BitVector day(users);
        day.randomize(rng, 0.95);
        const Time before = drive.now();
        leaves.push_back(Expr::leaf(drive.fcWrite(day, group)));
        activity.push_back(std::move(day));
        EXPECT_GT(drive.now(), before); // every write takes time
    }
    const Time writes_done = drive.now();
    Time write_channel = 0;
    for (std::uint32_t ch = 0; ch < cfg.channels; ++ch)
        write_channel += drive.engine().channelBusyTime(ch);

    FlashCosmosDrive::ReadStats stats;
    BitVector result = drive.fcRead(Expr::And(leaves), &stats);
    BitVector expected = activity[0];
    for (int d = 1; d < days; ++d)
        expected &= activity[d];
    EXPECT_EQ(result, expected);

    // The query completes after the writes; 16 operands over
    // 8-wordline strings is 2 MWS per page; programs and MWS are
    // booked separately.
    EXPECT_GT(drive.now(), writes_done);
    EXPECT_EQ(stats.mwsCommands, 2 * stats.resultPages);
    const ssd::EnergyMeter &meter = drive.engine().energy();
    EXPECT_GT(meter.get(ssd::EnergyComponent::NandMws), 0.0);
    EXPECT_GT(meter.get(ssd::EnergyComponent::NandProgram),
              meter.get(ssd::EnergyComponent::NandMws));

    // Only the result crosses the channel: far less bus time than
    // shipping the operands in did.
    Time total_channel = 0;
    for (std::uint32_t ch = 0; ch < cfg.channels; ++ch)
        total_channel += drive.engine().channelBusyTime(ch);
    EXPECT_LT((total_channel - write_channel) * 8, write_channel);
}

TEST(FirmwareWorkloadTest, RepeatedQueriesReuseStoredOperands)
{
    FlashCosmosDrive::Config cfg;
    cfg.dies = 2;
    cfg.geometry.blocksPerPlane = 32;
    FlashCosmosDrive drive(cfg);

    Rng rng = Rng::seeded(89);
    FlashCosmosDrive::WriteOptions group;
    group.group = 1;
    BitVector a(1000), b(1000), c(1000);
    a.randomize(rng);
    b.randomize(rng);
    c.randomize(rng);
    Expr ea = Expr::leaf(drive.fcWrite(a, group));
    Expr eb = Expr::leaf(drive.fcWrite(b, group));
    Expr ec = Expr::leaf(drive.fcWrite(c, group));

    // Compute-many: different queries over the same stored vectors,
    // each completing after the one before it.
    const Time t0 = drive.now();
    EXPECT_EQ(drive.fcRead(Expr::And({ea, eb})), a & b);
    const Time t1 = drive.now();
    EXPECT_EQ(drive.fcRead(Expr::And({ea, eb, ec})), a & b & c);
    const Time t2 = drive.now();
    EXPECT_EQ(drive.fcRead(Expr::Nand({eb, ec})), ~(b & c));
    const Time t3 = drive.now();
    EXPECT_GT(t1, t0);
    EXPECT_GT(t2, t1);
    EXPECT_GT(t3, t2);
}

} // namespace
} // namespace fcos
