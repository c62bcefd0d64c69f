/**
 * @file
 * FlashCosmosDrive functional tests: fc_write / fc_read end to end on
 * the NAND model, validated against reference evaluation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/drive.h"
#include "tests/support/random_fixture.h"

namespace fcos::core {
namespace {

class DriveTest : public test::RandomTest
{
};

TEST_F(DriveTest, WriteAndReadBackSingleVector)
{
    FlashCosmosDrive drive;
    BitVector data = randomVec(1000);
    VectorId id = drive.fcWrite(data);
    EXPECT_EQ(drive.readVector(id), data);
    EXPECT_EQ(drive.vectorBits(id), 1000u);
}

TEST_F(DriveTest, InvertedStorageReadsBackOriginal)
{
    FlashCosmosDrive drive;
    BitVector data = randomVec(500);
    FlashCosmosDrive::WriteOptions opts;
    opts.storeInverted = true;
    VectorId id = drive.fcWrite(data, opts);
    EXPECT_TRUE(drive.isStoredInverted(id));
    // readVector uses inverse-read mode to recover the logical value.
    EXPECT_EQ(drive.readVector(id), data);
}

TEST_F(DriveTest, AndOfGroupedVectorsIsOneMwsPerColumnChunk)
{
    FlashCosmosDrive drive;
    FlashCosmosDrive::WriteOptions opts;
    opts.group = 1;
    std::vector<BitVector> data;
    std::vector<Expr> leaves;
    for (int i = 0; i < 6; ++i) {
        data.push_back(randomVec(2000));
        leaves.push_back(Expr::leaf(drive.fcWrite(data.back(), opts)));
    }
    FlashCosmosDrive::ReadStats stats;
    BitVector result = drive.fcRead(Expr::And(leaves), &stats);

    BitVector expected = data[0];
    for (int i = 1; i < 6; ++i)
        expected &= data[i];
    EXPECT_EQ(result, expected);
    EXPECT_EQ(stats.planKind, MwsPlan::Kind::Mws);
    // 2000 bits over 32-byte pages = 8 pages; one MWS command each.
    EXPECT_EQ(stats.mwsCommands, stats.resultPages);
}

TEST_F(DriveTest, OrOfInverseStoredGroup)
{
    FlashCosmosDrive drive;
    FlashCosmosDrive::WriteOptions opts;
    opts.group = 2;
    opts.storeInverted = true;
    std::vector<BitVector> data;
    std::vector<Expr> leaves;
    for (int i = 0; i < 5; ++i) {
        data.push_back(randomVec(777));
        leaves.push_back(Expr::leaf(drive.fcWrite(data.back(), opts)));
    }
    FlashCosmosDrive::ReadStats stats;
    BitVector result = drive.fcRead(Expr::Or(leaves), &stats);

    BitVector expected = data[0];
    for (int i = 1; i < 5; ++i)
        expected |= data[i];
    EXPECT_EQ(result, expected);
    EXPECT_EQ(stats.planKind, MwsPlan::Kind::Mws);
}

TEST_F(DriveTest, NandAndNorWork)
{
    FlashCosmosDrive drive;
    FlashCosmosDrive::WriteOptions opts;
    opts.group = 3;
    BitVector a = randomVec(300), b = randomVec(300);
    VectorId ia = drive.fcWrite(a, opts);
    VectorId ib = drive.fcWrite(b, opts);

    EXPECT_EQ(drive.fcRead(Expr::Nand({Expr::leaf(ia), Expr::leaf(ib)})),
              ~(a & b));
    EXPECT_EQ(drive.fcRead(Expr::Nor({Expr::leaf(ia), Expr::leaf(ib)})),
              ~(a | b));
    EXPECT_EQ(drive.fcRead(Expr::Not(Expr::leaf(ia))), ~a);
}

TEST_F(DriveTest, XorAndXnorUseLatchXor)
{
    FlashCosmosDrive drive;
    BitVector a = randomVec(256), b = randomVec(256);
    // XOR needs no co-location: separate auto groups.
    VectorId ia = drive.fcWrite(a);
    VectorId ib = drive.fcWrite(b);

    FlashCosmosDrive::ReadStats stats;
    EXPECT_EQ(drive.fcRead(Expr::Xor(Expr::leaf(ia), Expr::leaf(ib)),
                           &stats),
              a ^ b);
    EXPECT_EQ(stats.planKind, MwsPlan::Kind::Xor);
    EXPECT_GT(stats.latchXors, 0u);

    EXPECT_EQ(drive.fcRead(Expr::Xnor(Expr::leaf(ia), Expr::leaf(ib))),
              ~(a ^ b));
}

TEST_F(DriveTest, Figure16CombinedExpression)
{
    FlashCosmosDrive drive;
    FlashCosmosDrive::WriteOptions plain_a, plain_b, inv_c, inv_d;
    plain_a.group = 10;
    plain_b.group = 11;
    inv_c.group = 12;
    inv_c.storeInverted = true;
    inv_d.group = 13;
    inv_d.storeInverted = true;

    BitVector A1 = randomVec(640);
    std::vector<BitVector> B, C, D;
    VectorId a1 = drive.fcWrite(A1, plain_a);
    std::vector<VectorId> bi, ci, di;
    for (int i = 0; i < 4; ++i) {
        B.push_back(randomVec(640));
        bi.push_back(drive.fcWrite(B.back(), plain_b));
        C.push_back(randomVec(640));
        ci.push_back(drive.fcWrite(C.back(), inv_c));
        D.push_back(randomVec(640));
        di.push_back(drive.fcWrite(D.back(), inv_d));
    }

    // {A1 + (B1 B2 B3 B4)} (C1 + C3) (D2 + D4)  (Equation 4)
    Expr expr = Expr::And(
        {Expr::Or({Expr::leaf(a1),
                   Expr::And({Expr::leaf(bi[0]), Expr::leaf(bi[1]),
                              Expr::leaf(bi[2]), Expr::leaf(bi[3])})}),
         Expr::Or({Expr::leaf(ci[0]), Expr::leaf(ci[2])}),
         Expr::Or({Expr::leaf(di[1]), Expr::leaf(di[3])})});

    BitVector expected =
        (A1 | (B[0] & B[1] & B[2] & B[3])) & (C[0] | C[2]) &
        (D[1] | D[3]);

    FlashCosmosDrive::ReadStats stats;
    BitVector result = drive.fcRead(expr, &stats);
    EXPECT_EQ(result, expected);
    EXPECT_EQ(stats.planKind, MwsPlan::Kind::Mws);
    // Two MWS commands per page column (Figure 16).
    EXPECT_EQ(stats.mwsCommands, 2 * stats.resultPages);
}

TEST_F(DriveTest, WideAndAccumulatesAcrossSubBlocks)
{
    // More operands than a NAND string holds (tiny geometry: 8 WLs per
    // sub-block) forces multi-command accumulation.
    FlashCosmosDrive drive;
    FlashCosmosDrive::WriteOptions opts;
    opts.group = 20;
    std::vector<BitVector> data;
    std::vector<Expr> leaves;
    for (int i = 0; i < 20; ++i) {
        data.push_back(randomVec(333));
        leaves.push_back(Expr::leaf(drive.fcWrite(data.back(), opts)));
    }
    FlashCosmosDrive::ReadStats stats;
    BitVector result = drive.fcRead(Expr::And(leaves), &stats);
    BitVector expected = data[0];
    for (int i = 1; i < 20; ++i)
        expected &= data[i];
    EXPECT_EQ(result, expected);
    // ceil(20 / 8) = 3 commands per column.
    EXPECT_EQ(stats.mwsCommands, 3 * stats.resultPages);
}

TEST_F(DriveTest, FallbackStillComputesCorrectly)
{
    setQuietWarnings(true);
    FlashCosmosDrive drive;
    // Two wide ANDs OR'd together: two deep chains -> fallback.
    FlashCosmosDrive::WriteOptions g1, g2;
    g1.group = 30;
    g2.group = 31;
    std::vector<BitVector> data;
    std::vector<Expr> a, b;
    for (int i = 0; i < 10; ++i) {
        data.push_back(randomVec(200));
        a.push_back(Expr::leaf(drive.fcWrite(data.back(), g1)));
    }
    for (int i = 0; i < 10; ++i) {
        data.push_back(randomVec(200));
        b.push_back(Expr::leaf(drive.fcWrite(data.back(), g2)));
    }
    Expr expr = Expr::Or({Expr::And(a), Expr::And(b)});
    FlashCosmosDrive::ReadStats stats;
    BitVector result = drive.fcRead(expr, &stats);

    BitVector ea = data[0];
    for (int i = 1; i < 10; ++i)
        ea &= data[i];
    BitVector eb = data[10];
    for (int i = 11; i < 20; ++i)
        eb &= data[i];
    EXPECT_EQ(result, ea | eb);
    EXPECT_EQ(stats.planKind, MwsPlan::Kind::Fallback);
    EXPECT_GT(stats.pageReads, 0u);
    setQuietWarnings(false);
}

TEST_F(DriveTest, GroupsRequireEqualSizes)
{
    FlashCosmosDrive drive;
    FlashCosmosDrive::WriteOptions opts;
    opts.group = 40;
    drive.fcWrite(randomVec(1000), opts);
    EXPECT_DEATH(drive.fcWrite(randomVec(5000), opts), "equal page");
}

TEST_F(DriveTest, MultiPageVectorsSpanDiesAndPlanes)
{
    FlashCosmosDrive::Config cfg;
    cfg.dies = 4;
    FlashCosmosDrive drive(cfg);
    FlashCosmosDrive::WriteOptions opts;
    opts.group = 50;
    // tiny geometry: 32-byte pages, 8 columns => 4096 bits = 16 pages.
    BitVector a = randomVec(4096), b = randomVec(4096);
    VectorId ia = drive.fcWrite(a, opts);
    VectorId ib = drive.fcWrite(b, opts);
    EXPECT_EQ(drive.fcRead(Expr::And({Expr::leaf(ia), Expr::leaf(ib)})),
              a & b);

    // Pages should spread across all 8 columns.
    const auto &pages = drive.vectorPages(ia);
    ASSERT_EQ(pages.size(), 16u);
    std::set<std::pair<std::uint32_t, std::uint32_t>> columns;
    for (const auto &p : pages)
        columns.insert({p.die, p.addr.plane});
    EXPECT_EQ(columns.size(), 8u);
}

// --------------------------------------------------------------------------
// ReadStats: the one per-request record
// --------------------------------------------------------------------------

TEST_F(DriveTest, ReusedReadStatsSumsFieldWise)
{
    FlashCosmosDrive drive;
    FlashCosmosDrive::WriteOptions opts;
    opts.group = 3;
    std::vector<Expr> leaves;
    for (int i = 0; i < 4; ++i)
        leaves.push_back(Expr::leaf(drive.fcWrite(randomVec(1500), opts)));
    const Expr q1 = Expr::And(leaves);
    const Expr q2 = Expr::Xor(leaves[0], leaves[1]);

    FlashCosmosDrive::ReadStats s1, s2, both;
    drive.fcRead(q1, &s1);
    drive.fcRead(q2, &s2);
    drive.fcRead(q1, &both);
    drive.fcRead(q2, &both);

    EXPECT_EQ(both.mwsCommands, s1.mwsCommands + s2.mwsCommands);
    EXPECT_EQ(both.senses, s1.senses + s2.senses);
    EXPECT_EQ(both.latchXors, s1.latchXors + s2.latchXors);
    EXPECT_EQ(both.pageReads, s1.pageReads + s2.pageReads);
    EXPECT_EQ(both.programs, s1.programs + s2.programs);
    EXPECT_EQ(both.resultPages, s1.resultPages + s2.resultPages);
    EXPECT_EQ(both.copybacks, s1.copybacks + s2.copybacks);
    EXPECT_EQ(both.erases, s1.erases + s2.erases);
    EXPECT_EQ(both.nandTime, s1.nandTime + s2.nandTime);
    EXPECT_DOUBLE_EQ(both.nandEnergyJ, s1.nandEnergyJ + s2.nandEnergyJ);
    EXPECT_EQ(both.makespan, s1.makespan + s2.makespan);
    EXPECT_EQ(both.streamPeakPages,
              std::max(s1.streamPeakPages, s2.streamPeakPages));
    // The plan fields describe the latest request.
    EXPECT_EQ(both.planKind, s2.planKind);
    EXPECT_EQ(both.planText, s2.planText);
    EXPECT_GT(s2.latchXors, 0u);
}

TEST_F(DriveTest, ResultPagesCountsDeliveredChunks)
{
    setQuietWarnings(true);
    FlashCosmosDrive::Config cfg;
    cfg.dies = 4;
    FlashCosmosDrive drive(cfg);
    FlashCosmosDrive::WriteOptions g1, g2;
    g1.group = 4;
    g2.group = 5;
    std::vector<Expr> a, b;
    for (int i = 0; i < 10; ++i) {
        a.push_back(Expr::leaf(drive.fcWrite(randomVec(1000), g1)));
        b.push_back(Expr::leaf(drive.fcWrite(randomVec(1000), g2)));
    }
    std::uint64_t chunks = 0;
    ChunkCallbackSink counter([&chunks](const ResultChunk &) { ++chunks; });
    const std::uint64_t pages =
        drive.vectorPages(a[0].leafIds()[0]).size();
    ASSERT_GT(pages, 1u);

    FlashCosmosDrive::ReadStats mws;
    drive.fcRead(Expr::And(a), counter, &mws);
    EXPECT_EQ(mws.planKind, MwsPlan::Kind::Mws);
    EXPECT_EQ(chunks, pages);
    EXPECT_EQ(mws.resultPages, chunks);

    chunks = 0;
    FlashCosmosDrive::ReadStats plain;
    drive.readVector(b[0].leafIds()[0], counter, &plain);
    EXPECT_EQ(chunks, pages);
    EXPECT_EQ(plain.resultPages, chunks);

    // Two deep chains OR'd together: the serial-read fallback.
    chunks = 0;
    FlashCosmosDrive::ReadStats fallback;
    drive.fcRead(Expr::Or({Expr::And(a), Expr::And(b)}), counter,
                 &fallback);
    EXPECT_EQ(fallback.planKind, MwsPlan::Kind::Fallback);
    EXPECT_EQ(chunks, pages);
    EXPECT_EQ(fallback.resultPages, chunks);
    setQuietWarnings(false);
}

TEST_F(DriveTest, ComputeAndReplicateCountProgramsNotResultPages)
{
    FlashCosmosDrive drive;
    FlashCosmosDrive::WriteOptions opts;
    opts.group = 6;
    BitVector a = randomVec(2000), b = randomVec(2000);
    Expr ea = Expr::leaf(drive.fcWrite(a, opts));
    Expr eb = Expr::leaf(drive.fcWrite(b, opts));
    const std::uint64_t pages =
        drive.vectorPages(ea.leafIds()[0]).size();

    // The result is programmed from the latch and never leaves the die.
    FlashCosmosDrive::ReadStats cs;
    VectorId c = drive.fcCompute(ea & eb, opts, &cs);
    EXPECT_EQ(cs.resultPages, 0u);
    EXPECT_EQ(cs.programs, pages);
    EXPECT_EQ(cs.mwsCommands, pages);
    EXPECT_GT(cs.makespan, 0u);
    EXPECT_EQ(drive.readVector(c), a & b);

    // One sense feeds every copy; the copies are programs, not reads.
    VectorId mask = drive.fcWrite(randomVec(200));
    FlashCosmosDrive::ReadStats rs;
    drive.fcReplicate(mask, pages, opts, &rs);
    EXPECT_EQ(rs.resultPages, 0u);
    EXPECT_EQ(rs.programs, pages);
    EXPECT_EQ(rs.pageReads, 1u);
    EXPECT_GT(rs.makespan, 0u);
}

} // namespace
} // namespace fcos::core
