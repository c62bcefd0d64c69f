/**
 * @file
 * SSD configuration (paper Table 1 and the Figure 7 example).
 *
 * IoParams is the single authority for every I/O rate and energy
 * constant: the compute engine's scheduler (engine/scheduler) books
 * channel, external-link and accelerator time and energy from it, and
 * the Table 1 report prints it.
 */

#ifndef FCOS_SSD_CONFIG_H
#define FCOS_SSD_CONFIG_H

#include <cstdint>

#include "nand/config.h"
#include "nand/geometry.h"
#include "nand/page_store.h"
#include "util/units.h"

namespace fcos::ssd {

/**
 * I/O rates and movement/controller energy constants (Table 1 plus
 * the SSD-side energy model; see platforms/energy_model.h for the
 * host-side constants and sources).
 */
struct IoParams
{
    /** Channel I/O rate between dies and the controller (Table 1). */
    double channelGBps = 1.2;
    /** External I/O bandwidth, 4-lane PCIe Gen4 (Table 1). */
    double externalGBps = 8.0;

    double channelPjPerBit = 2.0;   ///< die <-> controller movement
    double externalPjPerBit = 10.0; ///< PCIe link + PHY
    double controllerActiveWatts = 2.0; ///< controller while SSD busy
    /** ISP accelerator energy per 64-B bitwise operation (Table 1). */
    double accelPjPer64B = 93.0;

    /** Channel time to move @p bytes between a die and the controller. */
    Time channelTime(std::uint64_t bytes) const
    {
        return transferTime(bytes, channelGBps);
    }

    /** External-link time to move @p bytes to/from the host. */
    Time externalTime(std::uint64_t bytes) const
    {
        return transferTime(bytes, externalGBps);
    }

    /** Joules to move @p bytes over a channel bus. */
    double channelEnergyJ(std::uint64_t bytes) const
    {
        return channelPjPerBit * 1e-12 * static_cast<double>(bytes) * 8.0;
    }

    /** Joules to move @p bytes over the external link. */
    double externalEnergyJ(std::uint64_t bytes) const
    {
        return externalPjPerBit * 1e-12 * static_cast<double>(bytes) * 8.0;
    }

    /** Joules for @p bytes of ISP-accelerator bitwise work. */
    double accelEnergyJ(std::uint64_t bytes) const
    {
        return accelPjPer64B * 1e-12 * (static_cast<double>(bytes) / 64.0);
    }
};

struct SsdConfig
{
    std::uint32_t channels = 8;
    std::uint32_t diesPerChannel = 8;
    nand::Geometry geometry = nand::Geometry::table1();
    nand::Timings timings{};

    /** Page-payload backend for functional execution over this
     *  configuration (engine::FarmConfig::fromSsd forwards it). */
    nand::PageStoreKind pageStore = nand::PageStoreKind::Sparse;

    /** Shared I/O-rate/energy authority (also used by the engine). */
    IoParams io{};

    /** Host worker lanes for engine execution (0 = FCOS_WORKERS env
     *  default, 1 = serial). Purely a host-side throughput knob: the
     *  simulated timeline is bit-identical for any value. */
    std::uint32_t engineWorkers = 0;

    /** Power cap on simultaneously activated blocks in inter-block MWS
     *  (Section 5.2 conclusion). */
    std::uint32_t maxInterBlockMws = 4;

    /** Max wordlines per intra-block MWS (= NAND string length). */
    std::uint32_t maxIntraMwsWordlines() const
    {
        return geometry.wordlinesPerSubBlock;
    }

    std::uint32_t totalDies() const { return channels * diesPerChannel; }
    std::uint32_t totalPlanes() const
    {
        return totalDies() * geometry.planesPerDie;
    }

    /** Channel time to move one page between a die and the controller. */
    Time pageDmaTime() const { return io.channelTime(geometry.pageBytes); }

    /** External-link time to move one page to/from the host. */
    Time pageExternalTime() const
    {
        return io.externalTime(geometry.pageBytes);
    }

    /** The evaluated configuration (Table 1). */
    static SsdConfig table1() { return SsdConfig{}; }

    /**
     * The illustrative SSD of Figure 7: 8 channels x 4 dies x 2 planes,
     * tR = 60 us, so that tDMA = 27 us per 32-KiB die batch and
     * tEXT = 4 us per batch, reproducing the 471/431/335 us timelines.
     */
    static SsdConfig figure7()
    {
        SsdConfig c;
        c.diesPerChannel = 4;
        c.timings.tReadSlc = usToTime(60.0);
        return c;
    }
};

} // namespace fcos::ssd

#endif // FCOS_SSD_CONFIG_H
