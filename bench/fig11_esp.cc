/**
 * @file
 * Figure 11 — RBER vs tESP for the worst / median / best block, plus
 * the Section 5.2 zero-error validation campaign.
 *
 * Paper anchors: +60% tESP buys an order of magnitude for the median
 * block; tESP >= 1.9x shows zero errors across > 4.83e11 bits
 * (statistical RBER < 2.07e-12).
 */

#include <cmath>

#include "bench/bench_util.h"
#include "platforms/reports.h"
#include "reliability/chip_population.h"

using namespace fcos;
using namespace fcos::rel;

int
main(int argc, char **argv)
{
    fcos::bench::initObs(argc, argv);
    bench::header("Figure 11",
                  "RBER vs tESP (worst / median / best block), "
                  "10K P/E cycles, 1-year retention, worst-case "
                  "pattern");

    ChipPopulation population; // full 160-chip population
    OperatingCondition worst{10000, 12.0, false};

    // Shared table builders (platforms/reports): the golden test pins
    // the same tables over a reduced population.
    plat::fig11EspTable(population, worst).print();

    // The validation campaign: every page of 120 blocks on each of 160
    // chips (> 4.83e11 bits), Poisson-sampled error counts.
    std::printf("\nZero-error validation campaigns (4.83e11 bits):\n");
    plat::fig11CampaignTable(population, worst, 483000000000ULL).print();
    std::printf("\n");

    auto base = population.espRber(1.0, worst);
    auto at16 = population.espRber(1.6, worst);
    auto at19 = population.espRber(1.9, worst);
    nand::PageMeta meta19;
    meta19.mode = nand::ProgramMode::SlcEsp;
    meta19.espFactor = 1.9;
    auto camp19 = population.runCampaign(meta19, worst, 483000000000ULL);

    bench::anchor("median-block gain at tESP = 1.6x",
                  "~1 order of magnitude",
                  TablePrinter::cell(std::log10(base.median /
                                                at16.median),
                                     2) +
                      " orders");
    bench::anchor("errors at tESP >= 1.9x over 4.83e11 bits", "0",
                  std::to_string(camp19.errors));
    bench::anchor("statistical RBER bound at 1.9x", "< 2.07e-12",
                  camp19.errors == 0
                      ? "< " + TablePrinter::cellSci(camp19.rberBound())
                      : "n/a");
    bench::anchor("worst-block RBER at 1.9x", "(below bound)",
                  TablePrinter::cellSci(at19.worst));
    return 0;
}
