/**
 * @file
 * Energy meter tests, and the per-page I/O times of the SSD
 * configuration.
 */

#include <gtest/gtest.h>

#include "ssd/config.h"
#include "ssd/energy.h"

namespace fcos::ssd {
namespace {

TEST(EnergyMeterTest, AccumulatesPerComponent)
{
    EnergyMeter m;
    m.add(EnergyComponent::NandRead, 1.0);
    m.add(EnergyComponent::NandRead, 2.0);
    m.add(EnergyComponent::HostCpu, 4.0);
    EXPECT_DOUBLE_EQ(m.get(EnergyComponent::NandRead), 3.0);
    EXPECT_DOUBLE_EQ(m.get(EnergyComponent::HostCpu), 4.0);
    EXPECT_DOUBLE_EQ(m.get(EnergyComponent::NandErase), 0.0);
    EXPECT_DOUBLE_EQ(m.total(), 7.0);
}

TEST(EnergyMeterTest, ScaleAffectsOneComponent)
{
    EnergyMeter m;
    m.add(EnergyComponent::ChannelDma, 2.0);
    m.add(EnergyComponent::HostCpu, 1.0);
    m.scale(EnergyComponent::ChannelDma, 8.0);
    EXPECT_DOUBLE_EQ(m.get(EnergyComponent::ChannelDma), 16.0);
    EXPECT_DOUBLE_EQ(m.get(EnergyComponent::HostCpu), 1.0);
}

TEST(EnergyMeterTest, ResetZeroesEverything)
{
    EnergyMeter m;
    m.add(EnergyComponent::Controller, 5.0);
    m.reset();
    EXPECT_DOUBLE_EQ(m.total(), 0.0);
}

TEST(EnergyMeterTest, BreakdownListsNonZeroComponents)
{
    EnergyMeter m;
    m.add(EnergyComponent::NandMws, 1e-6);
    std::string b = m.breakdown();
    EXPECT_NE(b.find("nand.mws"), std::string::npos);
    EXPECT_EQ(b.find("nand.erase"), std::string::npos);
    EXPECT_NE(b.find("total"), std::string::npos);
}

TEST(EnergyMeterTest, ComponentNamesAreStable)
{
    EXPECT_STREQ(energyComponentName(EnergyComponent::NandRead),
                 "nand.read");
    EXPECT_STREQ(energyComponentName(EnergyComponent::ExternalLink),
                 "ssd.external_link");
    EXPECT_STREQ(energyComponentName(EnergyComponent::HostDram),
                 "host.dram");
}

TEST(SsdConfigTest, PageTimesMatchPaper)
{
    SsdConfig cfg = SsdConfig::table1();
    // 16 KiB at 1.2 GB/s ~ 13.65 us; at 8 GB/s ~ 2.05 us.
    EXPECT_NEAR(timeToUs(cfg.pageDmaTime()), 13.65, 0.05);
    EXPECT_NEAR(timeToUs(cfg.pageExternalTime()), 2.05, 0.05);
}

} // namespace
} // namespace fcos::ssd
