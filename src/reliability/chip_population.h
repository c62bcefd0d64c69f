/**
 * @file
 * Simulated chip population standing in for the paper's real-device
 * infrastructure (Section 5.1): 160 48-layer 3D TLC chips from five
 * wafers, 120 random blocks per chip, every page tested.
 *
 * Process variation is modelled as a per-block lognormal quality factor
 * multiplying the V_TH state sigmas; wafer-level correlation adds a
 * shared per-chip component. RBER statistics over the population are
 * computed analytically per block and, where the paper counts discrete
 * errors (the ESP zero-error campaigns), by Poisson-sampling error
 * counts from the analytic rates — statistically faithful to per-cell
 * Monte Carlo at a tiny fraction of the cost.
 */

#ifndef FCOS_RELIABILITY_CHIP_POPULATION_H
#define FCOS_RELIABILITY_CHIP_POPULATION_H

#include <cstdint>
#include <vector>

#include "reliability/vth_model.h"
#include "util/rng.h"

namespace fcos::rel {

class ChipPopulation
{
  public:
    struct Config
    {
        std::uint32_t chips = 160;
        std::uint32_t blocksPerChip = 120;
        std::uint32_t wafers = 5;
        /** Bits tested per wordline (16-KiB page). */
        std::uint64_t bitsPerWordline = 16ULL * 1024 * 8;
        /** Wordlines per tested block (Table 1: 4 x 48). */
        std::uint32_t wordlinesPerBlock = 192;
        std::uint64_t seed = 42;
        VthParams vth{};
    };

    /** Construct with the paper's default population. */
    ChipPopulation();
    explicit ChipPopulation(const Config &cfg);

    const Config &config() const { return cfg_; }
    const VthModel &model() const { return model_; }

    /** Number of (chip, block) pairs under test. */
    std::size_t blockCount() const { return qualities_.size(); }

    /** Sigma multiplier of block @p index. */
    double blockQuality(std::size_t index) const;

    /** Total wordlines under test (paper: 3,686,400). */
    std::uint64_t totalWordlines() const;

    /**
     * Population-average RBER for a programming mode and condition
     * (one point of Figure 8).
     */
    double averageRber(nand::ProgramMode mode,
                       const OperatingCondition &cond) const;

    /** Worst/median/best-block RBER of ESP at @p esp_factor
     *  (one x-value of Figure 11). */
    struct EspPoint
    {
        double worst, median, best;
    };
    EspPoint espRber(double esp_factor,
                     const OperatingCondition &cond) const;

    /**
     * Error-count campaign: read @p total_bits spread uniformly over
     * the population's blocks with the given per-page mode, drawing
     * discrete error counts. Reproduces the paper's ">4.83e11 bits,
     * zero errors" ESP validation.
     */
    struct Campaign
    {
        std::uint64_t bits = 0;
        std::uint64_t errors = 0;
        double expectedErrors = 0.0;
        /** Statistical RBER bound 1/bits when errors == 0. */
        double rberBound() const
        {
            return bits ? 1.0 / static_cast<double>(bits) : 0.0;
        }
    };
    Campaign runCampaign(const nand::PageMeta &meta,
                         const OperatingCondition &cond,
                         std::uint64_t total_bits,
                         std::uint64_t seed = 7) const;

  private:
    double blockRber(nand::ProgramMode mode, double esp_factor,
                     const OperatingCondition &cond,
                     std::size_t index) const;

    Config cfg_;
    VthModel model_;
    std::vector<double> qualities_;
};

} // namespace fcos::rel

#endif // FCOS_RELIABILITY_CHIP_POPULATION_H
