#include "reliability/chip_population.h"

#include <algorithm>
#include <cmath>

#include "util/log.h"
#include "util/mathutil.h"

namespace fcos::rel {

ChipPopulation::ChipPopulation() : ChipPopulation(Config{}) {}

ChipPopulation::ChipPopulation(const Config &cfg)
    : cfg_(cfg), model_(cfg.vth)
{
    fcos_assert(cfg.chips > 0 && cfg.blocksPerChip > 0,
                "empty chip population");
    Rng rng = Rng::seeded(cfg.seed);
    qualities_.reserve(static_cast<std::size_t>(cfg.chips) *
                       cfg.blocksPerChip);
    double sigma = cfg.vth.blockQualitySigma;
    for (std::uint32_t c = 0; c < cfg.chips; ++c) {
        Rng chip_rng = rng.fork(c);
        // Wafer- and chip-level shared variation (40% of the budget),
        // block-level independent variation (60%).
        double chip_part = chip_rng.gaussian(0.0, sigma * 0.4);
        for (std::uint32_t b = 0; b < cfg.blocksPerChip; ++b) {
            double block_part = chip_rng.gaussian(0.0, sigma * 0.6);
            qualities_.push_back(std::exp(chip_part + block_part));
        }
    }
}

double
ChipPopulation::blockQuality(std::size_t index) const
{
    fcos_assert(index < qualities_.size(), "block index out of range");
    return qualities_[index];
}

std::uint64_t
ChipPopulation::totalWordlines() const
{
    return static_cast<std::uint64_t>(qualities_.size()) *
           cfg_.wordlinesPerBlock;
}

double
ChipPopulation::blockRber(nand::ProgramMode mode, double esp_factor,
                    const OperatingCondition &cond,
                    std::size_t index) const
{
    double q = qualities_[index];
    switch (mode) {
      case nand::ProgramMode::SlcRegular:
        return model_.rberSlc(cond, q);
      case nand::ProgramMode::SlcEsp:
        return model_.rberEsp(esp_factor, cond, q);
      case nand::ProgramMode::Mlc:
        return model_.rberMlc(cond, q);
      case nand::ProgramMode::Tlc:
        return model_.rberTlc(cond, q);
    }
    fcos_panic("unknown mode");
}

double
ChipPopulation::averageRber(nand::ProgramMode mode,
                      const OperatingCondition &cond) const
{
    double sum = 0.0;
    for (std::size_t i = 0; i < qualities_.size(); ++i)
        sum += blockRber(mode, 1.0, cond, i);
    return sum / static_cast<double>(qualities_.size());
}

ChipPopulation::EspPoint
ChipPopulation::espRber(double esp_factor,
                        const OperatingCondition &cond) const
{
    std::vector<double> rbers(qualities_.size());
    for (std::size_t i = 0; i < qualities_.size(); ++i)
        rbers[i] = blockRber(nand::ProgramMode::SlcEsp, esp_factor, cond,
                             i);
    EspPoint p;
    p.worst = percentile(rbers, 100.0);
    p.median = percentile(rbers, 50.0);
    p.best = percentile(rbers, 0.0);
    return p;
}

ChipPopulation::Campaign
ChipPopulation::runCampaign(const nand::PageMeta &meta,
                      const OperatingCondition &cond,
                      std::uint64_t total_bits, std::uint64_t seed) const
{
    Campaign c;
    c.bits = total_bits;
    Rng rng = Rng::seeded(seed);
    std::uint64_t bits_per_block =
        total_bits / qualities_.size();
    std::uint64_t remainder = total_bits % qualities_.size();
    for (std::size_t i = 0; i < qualities_.size(); ++i) {
        std::uint64_t bits = bits_per_block + (i < remainder ? 1 : 0);
        if (bits == 0)
            continue;
        double rber = blockRber(meta.mode, meta.espFactor, cond, i);
        double mean = rber * static_cast<double>(bits);
        c.expectedErrors += mean;
        c.errors += rng.fork(i).poisson(mean);
    }
    return c;
}

} // namespace fcos::rel
