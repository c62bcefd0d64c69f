/**
 * @file
 * Figure 7 — channel execution timelines of OSP, ISP and in-flash
 * processing for a bulk bitwise OR of three 1-MiB vectors on the
 * illustrative SSD (8 channels x 4 two-plane dies, tR = 60 us,
 * tDMA = 27 us per 32-KiB die batch, tEXT = 4 us).
 *
 * The table comes from the shared plat::fig07TimelineTable builder
 * (golden-pinned in tests/platforms/report_golden_test.cc) and runs
 * through the compute engine.
 *
 * Paper anchors: OSP 471 us (external-I/O bound), ISP 431 us
 * (internal-I/O bound), IFP 335 us (sensing bound).
 */

#include "bench/bench_util.h"
#include "platforms/reports.h"

using namespace fcos;

int
main(int argc, char **argv)
{
    fcos::bench::initObs(argc, argv);
    bench::header("Figure 7",
                  "execution timelines: OSP vs ISP vs in-flash (OR of "
                  "three 1-MiB vectors)");

    ssd::SsdConfig cfg = ssd::SsdConfig::figure7();
    plat::PlatformRunner runner(cfg);

    plat::fig07TimelineTable(runner).print();
    std::printf("\n");

    wl::Workload w = plat::figure7Workload();
    plat::RunResult osp = runner.run(plat::PlatformKind::Osp, w);
    plat::RunResult isp = runner.run(plat::PlatformKind::Isp, w);
    plat::RunResult ifp = runner.run(plat::PlatformKind::ParaBit, w);
    bench::anchor("OSP execution time", "471 us",
                  formatTime(osp.makespan));
    bench::anchor("ISP execution time", "431 us",
                  formatTime(isp.makespan));
    bench::anchor("IFP execution time", "335 us",
                  formatTime(ifp.makespan));
    bench::anchor("ordering", "OSP > ISP > IFP",
                  (osp.makespan > isp.makespan &&
                   isp.makespan > ifp.makespan)
                      ? "OSP > ISP > IFP"
                      : "MISMATCH");
    return 0;
}
