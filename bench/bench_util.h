/**
 * @file
 * Shared helpers for the figure/table regeneration benches.
 *
 * Every bench prints (i) the paper's quoted anchor values and (ii) the
 * values this reproduction measures, so each paper number can be
 * checked straight from bench output.
 */

#ifndef FCOS_BENCH_BENCH_UTIL_H
#define FCOS_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <string>
#include <string_view>

#include "obs/obs.h"
#include "util/table.h"

namespace fcos::bench {

/**
 * Parse the shared observability flags — `--trace=<file>` and
 * `--metrics=<file>` — and enable the corresponding obs sessions, so
 * any bench can emit a Perfetto-loadable timeline or a metrics report
 * without code changes. Call first thing in main(), before the bench
 * constructs drives/engines (components capture the obs epoch at
 * construction). Unrecognized arguments are ignored. The files are
 * written at process exit, like the FCOS_TRACE / FCOS_METRICS env
 * knobs.
 */
inline void
initObs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view a(argv[i]);
        if (a.rfind("--trace=", 0) == 0)
            obs::enableTrace(std::string(a.substr(8)));
        else if (a.rfind("--metrics=", 0) == 0)
            obs::enableMetrics(std::string(a.substr(10)));
    }
}

/** Standard bench header naming the paper artifact. */
inline void
header(const std::string &artifact, const std::string &description)
{
    std::printf("================================================="
                "=============\n");
    std::printf("%s — %s\n", artifact.c_str(), description.c_str());
    std::printf("================================================="
                "=============\n\n");
}

/** One paper-vs-measured comparison line. */
inline void
anchor(const std::string &what, const std::string &paper,
       const std::string &measured)
{
    std::printf("  anchor: %-44s paper: %-12s here: %s\n", what.c_str(),
                paper.c_str(), measured.c_str());
}

inline std::string
ratioStr(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", v);
    return buf;
}

/** "1.23G items/s"-style rate formatting (shared with the vendored
 *  minibench harness so there is exactly one rate formatter). */
inline std::string
rateStr(double per_second, const char *unit)
{
    char buf[64];
    if (per_second >= 1e9)
        std::snprintf(buf, sizeof(buf), "%.2fG %s/s", per_second / 1e9,
                      unit);
    else if (per_second >= 1e6)
        std::snprintf(buf, sizeof(buf), "%.2fM %s/s", per_second / 1e6,
                      unit);
    else
        std::snprintf(buf, sizeof(buf), "%.2fk %s/s", per_second / 1e3,
                      unit);
    return buf;
}

} // namespace fcos::bench

#endif // FCOS_BENCH_BENCH_UTIL_H
