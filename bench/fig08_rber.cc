/**
 * @file
 * Figure 8 — RBER of SLC- and MLC-mode programming across P/E cycles
 * and retention age, with and without data randomization, over the
 * simulated 160-chip population.
 *
 * Paper anchors: disabling randomization costs 1.91x (SLC) and 4.92x
 * (MLC); MLC reaches up to ~4x the SLC RBER; the Figure 8(b) range is
 * 8.6e-4 .. 1.6e-2.
 */

#include <vector>

#include "bench/bench_util.h"
#include "platforms/reports.h"
#include "reliability/chip_population.h"

using namespace fcos;
using namespace fcos::rel;

namespace {

double
gridAverage(const ChipPopulation &population, nand::ProgramMode mode,
            bool randomized)
{
    double sum = 0.0;
    int n = 0;
    for (std::uint32_t pec : {0u, 1000u, 2000u, 3000u, 6000u, 10000u}) {
        for (double mo : {0.0, 1.0, 2.0, 3.0, 6.0, 12.0}) {
            sum += population.averageRber(
                mode, OperatingCondition{pec, mo, randomized});
            ++n;
        }
    }
    return sum / n;
}

} // namespace

int
main(int argc, char **argv)
{
    fcos::bench::initObs(argc, argv);
    bench::header("Figure 8",
                  "RBER vs P/E cycles, retention age, programming "
                  "mode, and randomization (3,686,400 wordlines)");

    // A reduced population keeps the bench quick; statistics are
    // analytic per block, so the population size only affects the
    // variance of the process-variation average. The golden test pins the exact
    // same panels through the same builder and population config.
    ChipPopulation population(plat::fig08PopulationConfig());

    std::printf("%s\n", plat::fig08RberReport(population).c_str());

    double slc_r =
        gridAverage(population, nand::ProgramMode::SlcRegular, true);
    double slc_nr =
        gridAverage(population, nand::ProgramMode::SlcRegular, false);
    double mlc_r = gridAverage(population, nand::ProgramMode::Mlc, true);
    double mlc_nr =
        gridAverage(population, nand::ProgramMode::Mlc, false);

    OperatingCondition worst{10000, 12.0, true};
    double slc_worst =
        population.averageRber(nand::ProgramMode::SlcRegular, worst);
    double mlc_worst =
        population.averageRber(nand::ProgramMode::Mlc, worst);

    double lo = 1e9, hi = 0.0;
    for (std::uint32_t pec : {0u, 1000u, 2000u, 3000u, 6000u, 10000u}) {
        for (double mo : {0.0, 1.0, 2.0, 3.0, 6.0, 12.0}) {
            for (bool r : {true, false}) {
                double v = population.averageRber(
                    nand::ProgramMode::Mlc,
                    OperatingCondition{pec, mo, r});
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
        }
    }

    bench::anchor("SLC randomization-off factor", "1.91x",
                  bench::ratioStr(slc_nr / slc_r));
    bench::anchor("MLC randomization-off factor", "4.92x",
                  bench::ratioStr(mlc_nr / mlc_r));
    bench::anchor("MLC / SLC at worst point", "up to 4x",
                  bench::ratioStr(mlc_worst / slc_worst));
    bench::anchor("Figure 8(b) RBER range", "8.6e-4 .. 1.6e-2",
                  TablePrinter::cellSci(lo) + " .. " +
                      TablePrinter::cellSci(hi));
    bench::anchor("SLC+rand RBER vs UBER target 1e-15",
                  "~12 orders above",
                  TablePrinter::cell(
                      std::log10(slc_r / 1e-15), 1) +
                      " orders above");
    return 0;
}
