/**
 * @file
 * Drive-level concurrent request tests: the async submit/waitAll API,
 * overlap of independent requests on the shared timeline, conflict
 * serialization, per-request stats isolation, paced arrivals, and
 * bit-identity of serial submission with the synchronous wrappers.
 */

#include <gtest/gtest.h>

#include "core/drive.h"
#include "tests/support/random_fixture.h"

namespace fcos::core {
namespace {

class ConcurrentRequestsTest : public test::RandomTest
{
  protected:
    static FlashCosmosDrive::Config twoDies()
    {
        FlashCosmosDrive::Config cfg;
        cfg.channels = 1;
        cfg.dies = 2;
        return cfg;
    }

    /** Columns of one die under tiny geometry (2 planes/die). */
    static std::uint32_t columnsPerDie()
    {
        return nand::Geometry::tiny().planesPerDie;
    }
};

TEST_F(ConcurrentRequestsTest, SubmitWaitReturnsSameResultsAsSyncCalls)
{
    BitVector a = randomVec(900), b = randomVec(900);

    FlashCosmosDrive sync_drive(twoDies());
    FlashCosmosDrive::WriteOptions g1;
    g1.group = 1;
    VectorId sa = sync_drive.fcWrite(a, g1);
    VectorId sb = sync_drive.fcWrite(b, g1);
    FlashCosmosDrive::ReadStats sync_stats;
    BitVector sync_result =
        sync_drive.fcRead(Expr::leaf(sa) & Expr::leaf(sb), &sync_stats);

    FlashCosmosDrive async_drive(twoDies());
    FlashCosmosDrive::Submitted wa = async_drive.submitWrite(a, g1);
    async_drive.waitAll();
    FlashCosmosDrive::Submitted wb = async_drive.submitWrite(b, g1);
    async_drive.waitAll();
    DenseCollectSink dense;
    FlashCosmosDrive::ReadStats async_stats;
    async_drive.submitRead(
        Expr::leaf(wa.vector) & Expr::leaf(wb.vector), dense,
        &async_stats);
    async_drive.waitAll();

    // Serial submission degenerates to the historical drain-per-op
    // schedule: identical payloads, timings, and energy ledger.
    EXPECT_EQ(dense.take(), sync_result);
    EXPECT_EQ(async_stats.makespan, sync_stats.makespan);
    EXPECT_EQ(async_stats.resultPages, sync_stats.resultPages);
    EXPECT_EQ(async_stats.streamPeakPages, sync_stats.streamPeakPages);
    EXPECT_EQ(async_drive.engine().makespan(),
              sync_drive.engine().makespan());
    EXPECT_EQ(async_drive.engine().totalEnergyJ(),
              sync_drive.engine().totalEnergyJ());
}

TEST_F(ConcurrentRequestsTest, IndependentReadsOnDifferentDiesOverlap)
{
    // The ISSUE acceptance test: two single-die requests on different
    // dies must overlap — combined makespan strictly below 2x a single
    // request's.
    BitVector a = randomVec(200), b = randomVec(200);
    FlashCosmosDrive::WriteOptions die0, die1;
    die0.homeColumn = 0;
    die1.homeColumn = columnsPerDie(); // first column of die 1

    // Baseline: the same reads, serial.
    FlashCosmosDrive serial(twoDies());
    VectorId s0 = serial.fcWrite(a, die0);
    VectorId s1 = serial.fcWrite(b, die1);
    FlashCosmosDrive::ReadStats m0, m1;
    BitVector r0 = serial.readVector(s0, &m0);
    BitVector r1 = serial.readVector(s1, &m1);
    ASSERT_GT(m0.makespan, 0u);

    FlashCosmosDrive conc(twoDies());
    VectorId c0 = conc.fcWrite(a, die0);
    VectorId c1 = conc.fcWrite(b, die1);
    Time t0 = conc.now();
    DenseCollectSink d0, d1;
    FlashCosmosDrive::ReadStats cm0, cm1;
    conc.submitReadVector(c0, d0, &cm0);
    conc.submitReadVector(c1, d1, &cm1);
    conc.waitAll();
    Time combined = conc.now() - t0;

    EXPECT_EQ(d0.take(), r0);
    EXPECT_EQ(d1.take(), r1);
    // Overlap: strictly better than back-to-back, never better than
    // the slower of the two alone.
    EXPECT_LT(combined, m0.makespan + m1.makespan);
    EXPECT_GE(combined, std::max(m0.makespan, m1.makespan));
    EXPECT_EQ(conc.admission().completedCount(), 4u);
}

TEST_F(ConcurrentRequestsTest, OverlappingReadsKeepSeparateStats)
{
    // Two concurrent streamed reads must each report their *own*
    // chunk/peak/makespan numbers (per-request accounting, not
    // last-writer-wins into shared state).
    BitVector a = randomVec(600), b = randomVec(200);
    FlashCosmosDrive::WriteOptions die0, die1;
    die0.homeColumn = 0;
    die1.homeColumn = columnsPerDie();

    FlashCosmosDrive drive(twoDies());
    VectorId va = drive.fcWrite(a, die0); // 600 bits / 256 = 3 pages
    VectorId vb = drive.fcWrite(b, die1); // 1 page
    ASSERT_EQ(drive.vectorPages(va).size(), 3u);
    ASSERT_EQ(drive.vectorPages(vb).size(), 1u);

    DenseCollectSink da, db;
    FlashCosmosDrive::ReadStats sa, sb;
    drive.submitReadVector(va, da, &sa);
    drive.submitReadVector(vb, db, &sb);
    drive.waitAll();

    EXPECT_EQ(da.take(), a);
    EXPECT_EQ(db.take(), b);
    EXPECT_EQ(sa.resultPages, 3u);
    EXPECT_EQ(sb.resultPages, 1u);
    EXPECT_GT(sa.makespan, 0u);
    EXPECT_GT(sb.makespan, 0u);
}

TEST_F(ConcurrentRequestsTest, ConflictingRequestsSerializeByBlock)
{
    // A write into the group's sub-block conflicts with a read of a
    // vector stored there; the admission queue must serialize them.
    // Against a baseline where the write goes to a disjoint group,
    // the conflicting schedule is strictly longer.
    BitVector a = randomVec(300), b = randomVec(300);
    FlashCosmosDrive::WriteOptions g1;
    g1.group = 1;

    auto span = [&](bool conflict) {
        FlashCosmosDrive drive(twoDies());
        VectorId va = drive.fcWrite(a, g1);
        FlashCosmosDrive::WriteOptions wopts;
        if (conflict)
            wopts.group = 1; // same sub-block => same blocks as va
        Time t0 = drive.now();
        DenseCollectSink sink;
        drive.submitReadVector(va, sink);
        drive.submitWrite(b, wopts);
        drive.waitAll();
        EXPECT_EQ(sink.take(), a);
        return drive.now() - t0;
    };

    Time conflicting = span(true);
    Time independent = span(false);
    EXPECT_GT(conflicting, independent);
}

TEST_F(ConcurrentRequestsTest, FutureArrivalsAndPacingAdvanceTheClock)
{
    BitVector a = randomVec(128);
    FlashCosmosDrive drive(twoDies());
    VectorId va = drive.fcWrite(a);

    Time start = drive.now();
    Time arrival = start + usToTime(500.0);
    DenseCollectSink sink;
    FlashCosmosDrive::RequestOptions ro;
    ro.arrival = arrival;
    drive.submitReadVector(va, sink, nullptr, ro);

    // advanceTo before the arrival: nothing admitted yet, but the
    // request is staged (the queue is not idle) and the clock moved.
    Time mid = drive.advanceTo(start + usToTime(100.0));
    EXPECT_EQ(mid, start + usToTime(100.0));
    EXPECT_EQ(drive.admission().completedCount(), 1u); // the write only
    EXPECT_FALSE(drive.admission().idle());

    drive.waitAll();
    EXPECT_GE(drive.now(), arrival);
    EXPECT_EQ(sink.take(), a);
    EXPECT_EQ(drive.admission().completedCount(), 2u);
}

TEST_F(ConcurrentRequestsTest, ConcurrentComputeAndReadProduceExactResults)
{
    // Mixed compute + I/O concurrency: a compute over group 1 and a
    // read over group 2 are independent and overlap, and both results
    // stay bit-exact.
    BitVector a = randomVec(512), b = randomVec(512), c = randomVec(512);
    FlashCosmosDrive::WriteOptions g1, g2;
    g1.group = 1;
    g2.group = 2;

    FlashCosmosDrive drive(twoDies());
    VectorId va = drive.fcWrite(a, g1);
    VectorId vb = drive.fcWrite(b, g1);
    VectorId vc = drive.fcWrite(c, g2);

    FlashCosmosDrive::WriteOptions dst;
    dst.group = 3;
    FlashCosmosDrive::Submitted comp =
        drive.submitCompute(Expr::leaf(va) & Expr::leaf(vb), dst);
    DenseCollectSink sink;
    drive.submitReadVector(vc, sink);
    drive.waitAll();

    EXPECT_EQ(sink.take(), c);
    EXPECT_EQ(drive.readVector(comp.vector), a & b);
}

} // namespace
} // namespace fcos::core
