/**
 * @file
 * Reliability explorer: interactively sweep the V_TH error model the
 * way the paper's Section 5 characterization does.
 *
 *   ./reliability_explorer [pec] [retention_months]
 *
 * Prints, for the chosen wear/retention point: the RBER of every
 * programming mode with and without randomization, the ESP
 * latency-reliability trade-off, and a Monte-Carlo error-count
 * campaign over the simulated 160-chip population.
 */

#include <cstdio>
#include <cstdlib>

#include "reliability/chip_population.h"
#include "util/table.h"

using namespace fcos;
using namespace fcos::rel;

int
main(int argc, char **argv)
{
    std::uint32_t pec = argc > 1
                            ? static_cast<std::uint32_t>(
                                  std::strtoul(argv[1], nullptr, 10))
                            : 10000;
    double months = argc > 2 ? std::strtod(argv[2], nullptr) : 12.0;

    std::printf("Reliability explorer: %u P/E cycles, %.1f months "
                "retention\n\n",
                pec, months);

    VthModel model;

    TablePrinter modes("RBER by programming mode");
    modes.setHeader({"mode", "randomized", "raw bit error rate"});
    for (bool r : {true, false}) {
        OperatingCondition c{pec, months, r};
        modes.addRow({"SLC", r ? "yes" : "no",
                      TablePrinter::cellSci(model.rberSlc(c))});
        modes.addRow({"MLC", r ? "yes" : "no",
                      TablePrinter::cellSci(model.rberMlc(c))});
    }
    {
        OperatingCondition c{pec, months, false};
        modes.addRow({"ESP (tESP=2.0x)", "no",
                      TablePrinter::cellSci(model.rberEsp(2.0, c))});
    }
    modes.print();

    std::printf("\n");
    TablePrinter esp("ESP latency-reliability trade-off");
    esp.setHeader({"tESP/tPROG", "tESP", "median-block RBER"});
    OperatingCondition worst{pec, months, false};
    for (double f = 1.0; f <= 2.001; f += 0.1) {
        char t[32];
        std::snprintf(t, sizeof(t), "%.0f us", 200.0 * f);
        esp.addRow({TablePrinter::cell(f, 1), t,
                    TablePrinter::cellSci(model.rberEsp(f, worst))});
    }
    esp.print();

    std::printf("\n");
    ChipPopulation population;
    nand::PageMeta esp_meta;
    esp_meta.mode = nand::ProgramMode::SlcEsp;
    esp_meta.espFactor = 2.0;
    nand::PageMeta slc_meta;
    slc_meta.mode = nand::ProgramMode::SlcRegular;
    slc_meta.randomized = false;

    const std::uint64_t bits = 483000000000ULL; // the paper's campaign
    auto esp_campaign = population.runCampaign(esp_meta, worst, bits);
    auto slc_campaign = population.runCampaign(slc_meta, worst, bits);

    TablePrinter camp("Error-count campaign over 160 chips, 4.83e11 bits");
    camp.setHeader({"storage", "observed errors", "expected",
                    "RBER bound"});
    camp.addRow({"regular SLC",
                 TablePrinter::cellInt(
                     static_cast<long long>(slc_campaign.errors)),
                 TablePrinter::cellSci(slc_campaign.expectedErrors),
                 "-"});
    camp.addRow({"ESP (2.0x)",
                 TablePrinter::cellInt(
                     static_cast<long long>(esp_campaign.errors)),
                 TablePrinter::cellSci(esp_campaign.expectedErrors),
                 esp_campaign.errors == 0
                     ? "< " + TablePrinter::cellSci(
                                  esp_campaign.rberBound())
                     : "-"});
    camp.print();

    if (esp_campaign.errors == 0) {
        std::printf("\nESP: zero bit errors across %llu bits — the "
                    "paper's Section 5.2 result.\n",
                    (unsigned long long)bits);
    }
    return 0;
}
