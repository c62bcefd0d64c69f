/**
 * @file
 * Latch-circuit semantics tests (Figures 3, 4, 6 and the Figure 16
 * accumulation rules).
 */

#include <gtest/gtest.h>

#include "nand/latch.h"

namespace fcos::nand {
namespace {

BitVector
bits(const std::string &s)
{
    return BitVector::fromString(s);
}

TEST(LatchTest, NormalReadLatchesConduction)
{
    LatchArray l(4);
    l.initSense();
    l.evaluate(bits("1010"), false, true);
    EXPECT_EQ(l.sense(), bits("1010"));
}

TEST(LatchTest, InverseReadLatchesComplement)
{
    LatchArray l(4);
    l.initSense();
    l.evaluate(bits("1010"), true, true);
    EXPECT_EQ(l.sense(), bits("0101"));
}

TEST(LatchTest, EvaluateFreshEqualsInitThenEvaluate)
{
    for (bool inverse : {false, true}) {
        LatchArray ref(5), fresh(5);
        ref.evaluate(bits("00000"), false, false); // S := 0 beforehand
        fresh.evaluate(bits("00000"), false, false);
        ref.initSense();
        ref.evaluate(bits("10110"), inverse, true);
        fresh.evaluateFresh(bits("10110"), inverse);
        EXPECT_EQ(fresh.sense(), ref.sense()) << inverse;
        EXPECT_FALSE(fresh.senseInitialized());
    }
    LatchArray l(4);
    EXPECT_DEATH(l.evaluateFresh(bits("101"), false), "width");
}

TEST(LatchTest, InverseReadRequiresInitialization)
{
    LatchArray l(4);
    l.initSense();
    l.evaluate(bits("1111"), false, true);
    // Second inverse evaluation without re-initialization must die.
    EXPECT_DEATH(l.evaluate(bits("0000"), true, false), "initialization");
}

TEST(LatchTest, ParaBitAndAccumulation)
{
    // Fig. 6(b): senses without re-init accumulate S := S AND N.
    LatchArray l(4);
    l.initSense();
    l.evaluate(bits("1110"), false, true);
    l.evaluate(bits("1101"), false, false);
    l.evaluate(bits("1011"), false, false);
    EXPECT_EQ(l.sense(), bits("1000"));
}

TEST(LatchTest, ParaBitOrAccumulation)
{
    // Fig. 6(c): re-init sense + M3 transfer accumulate C := C OR S.
    LatchArray l(4);
    l.initCache();
    for (const char *op : {"0001", "0010", "0100"}) {
        l.initSense();
        l.evaluate(bits(op), false, true);
        l.dumpOrMerge();
    }
    EXPECT_EQ(l.cache(), bits("0111"));
}

TEST(LatchTest, DumpCopyOverwritesCache)
{
    LatchArray l(4);
    l.initSense();
    l.evaluate(bits("1100"), false, true);
    l.initCache();
    l.dumpCopy();
    EXPECT_EQ(l.cache(), bits("1100"));
    l.initSense();
    l.evaluate(bits("0011"), false, true);
    l.dumpCopy();
    EXPECT_EQ(l.cache(), bits("0011"));
}

TEST(LatchTest, DumpAndMergeAccumulatesConjunction)
{
    // Figure 16: a dump with C-init off accumulates C := C AND S.
    LatchArray l(4);
    l.initSense();
    l.evaluate(bits("1110"), false, true);
    l.initCache();
    l.dumpCopy();
    l.initSense();
    l.evaluate(bits("0110"), false, true);
    l.dumpAndMerge();
    EXPECT_EQ(l.cache(), bits("0110"));
}

TEST(LatchTest, XorSenseIntoCache)
{
    LatchArray l(4);
    l.initSense();
    l.evaluate(bits("1100"), false, true);
    l.initCache();
    l.dumpCopy();
    l.initSense();
    l.evaluate(bits("1010"), false, true);
    l.xorSenseIntoCache();
    EXPECT_EQ(l.cache(), bits("0110"));
}

TEST(LatchTest, WidthMismatchPanics)
{
    LatchArray l(4);
    l.initSense();
    EXPECT_DEATH(l.evaluate(bits("11"), false, true), "width");
}

} // namespace
} // namespace fcos::nand
