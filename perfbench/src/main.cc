/**
 * @file
 * fcbench: one workload, one seed, one process.
 *
 *   fcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *           [--trace-out <file.json>]
 *
 * Runs reps of the workload (fresh drive, fixed seed-determined work,
 * oracle check) until --seconds have passed: at least three, or two of
 * each kind in a traced run. With --trace 1 every second rep is
 * traced: host-clock spans around every call into the drive plus the
 * obs metrics registry, from which the per-layer table is computed; a
 * workload with parallel workers also runs interleaved reps at that
 * worker count. Progress lines go to stdout as the reps run (so a
 * crash can be accounted for); the last line is one JSON object with
 * the result. Exit code 0 means every request completed, every
 * returned byte matched the oracle, and every rep reproduced the same
 * simulated statistics and result digest.
 */

#include <sys/personality.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "util/log.h"
#include "workloads.h"

namespace {

using fcbench::Rep;

constexpr std::size_t kSetupSamples = 41;
constexpr int kSetupSamplesPerRep = 4;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** JSON number with every significant digit. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::map<std::string, double> &m)
{
    std::string out = "{";
    for (const auto &[k, v] : m) {
        if (out.size() > 1)
            out += ",";
        out += "\"" + k + "\":" + num(v);
    }
    return out + "}";
}

/** Exact comparison of a rep's simulated statistics and digest with
 *  the first rep's; prints the first difference. */
bool
sameSimulation(const Rep &a, const Rep &b, const char *what)
{
    if (a.digest != b.digest) {
        std::fprintf(stderr,
                     "fcbench: %s result digest %016" PRIx64
                     " differs from %016" PRIx64 "\n",
                     what, b.digest, a.digest);
        return false;
    }
    for (const auto &[k, v] : a.sim) {
        auto it = b.sim.find(k);
        if (it == b.sim.end() || it->second != v) {
            std::fprintf(stderr, "fcbench: %s %s = %.17g differs from %.17g\n",
                         what, k.c_str(),
                         it == b.sim.end() ? NAN : it->second, v);
            return false;
        }
    }
    return true;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "fcbench: %s\nusage: fcbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // Address-space randomization gives every process a different heap
    // and stack layout, and with it a different cache-conflict pattern
    // (serve_gc set-up: 0.78-1.26 ms with it, 1.21-1.29 ms without, in
    // six paired runs). Re-run once with randomization off so that every
    // run of a build sees the same layout. Where the kernel refuses, run
    // as is.
    const int persona = personality(0xffffffff);
    if (persona != -1 && !(persona & ADDR_NO_RANDOMIZE) &&
        personality(persona | ADDR_NO_RANDOMIZE) != -1)
        execv(argv[0], argv);

    std::string name;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *val = argv[i + 1];
        if (flag == "--workload")
            name = val;
        else if (flag == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(val, nullptr);
        else if (flag == "--trace")
            trace = std::strcmp(val, "0") != 0;
        else if (flag == "--trace-out")
            trace_out = val;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    const fcbench::Workload *w = nullptr;
    for (const fcbench::Workload &cand : fcbench::workloads())
        if (name == cand.name)
            w = &cand;
    if (!w)
        return usage(("unknown workload '" + name + "'").c_str());
    fcos::setQuietWarnings(true);

    std::printf("{\"provenance\":{\"workload\":\"%s\",\"seed\":%" PRIu64
                ",\"workers\":1,\"parallel_workers\":%u,\"host_cores\":%u,"
                "\"build_type\":\"%s\",\"compiler\":\"%s\"}}\n",
                w->name, seed, w->parallelWorkers,
                std::thread::hardware_concurrency(), FCBENCH_BUILD_TYPE,
                FCBENCH_COMPILER);
    std::fflush(stdout);

    // Reps run in cycles: one untraced 1-worker rep, and in a traced
    // run also a traced one. A workload with parallel workers adds an
    // untraced and a traced rep at that worker count to each traced
    // cycle, so 1- and N-worker host times come from interleaved reps
    // and a slow spell on the host hits both alike.
    struct Kind
    {
        std::uint32_t workers;
        bool traced;
    };
    std::vector<Kind> cycle = {{1, false}};
    if (trace) {
        cycle.push_back({1, true});
        if (w->parallelWorkers > 1) {
            cycle.push_back({w->parallelWorkers, false});
            cycle.push_back({w->parallelWorkers, true});
        }
    }
    const std::size_t min_cycles = trace ? 2 : 3;
    // Set-up lasts about a millisecond and the host's speed drifts over
    // seconds, so set-up is sampled on its own a few times after every
    // rep, across the whole run: setup_s is the median of all samples
    // (a rep's own set-up follows the previous rep's teardown and is
    // reported per rep only).
    std::vector<double> setups;
    const auto setupOnce = [&] {
        fcbench::RepParams p;
        p.seed = seed;
        p.setupOnly = true;
        return w->run(p).setupS;
    };
    std::vector<std::vector<Rep>> reps(cycle.size());
    fcbench::SpanRecorder kept(false);
    bool deterministic = true;
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    const std::int64_t start = fcbench::hostNowNs();
    for (std::size_t i = 0;; ++i) {
        const std::size_t k = i % cycle.size();
        const double elapsed =
            static_cast<double>(fcbench::hostNowNs() - start) / 1e9;
        if (k == 0 && i >= min_cycles * cycle.size() && elapsed >= seconds)
            break;
        std::printf("{\"rep_begin\":%zu,\"planned\":%" PRIu64 "}\n", i,
                    w->plannedRequests);
        std::fflush(stdout);
        fcbench::SpanRecorder spans(false);
        fcbench::RepParams p;
        p.seed = seed;
        p.workers = cycle[k].workers;
        p.spans = cycle[k].traced ? &spans : nullptr;
        Rep r = w->run(p);
        attempted += r.attempted;
        ok += r.ok;
        std::printf("{\"rep_end\":%zu,\"workers\":%u,\"traced\":%d,"
                    "\"attempted\":%" PRIu64 ",\"ok\":%" PRIu64
                    ",\"setup_s\":%s,\"timed_s\":%s,\"check_s\":%s}\n",
                    i, p.workers, cycle[k].traced ? 1 : 0, r.attempted, r.ok,
                    num(r.setupS).c_str(), num(r.timedS).c_str(),
                    num(r.checkS).c_str());
        std::fflush(stdout);
        deterministic &=
            sameSimulation(i == 0 ? r : reps[0].front(), r, w->name);
        if (k == 1 && reps[1].empty())
            kept = std::move(spans);
        reps[k].push_back(std::move(r));
        if (!trace)
            for (int j = 0; j < kSetupSamplesPerRep; ++j)
                setups.push_back(setupOnce());
    }
    while (!trace && setups.size() < kSetupSamples)
        setups.push_back(setupOnce());
    const std::vector<Rep> &plain = reps[0];

    std::map<std::string, double> metrics;
    auto medianOf = [](const std::vector<Rep> &rs, auto field) {
        std::vector<double> v;
        for (const Rep &r : rs)
            v.push_back(field(r));
        return median(std::move(v));
    };
    const auto pagesPerS = [](const Rep &r) {
        return static_cast<double>(r.hostPages) / r.timedS;
    };
    const auto timedS = [](const Rep &r) { return r.timedS; };
    if (!trace) {
        metrics["host_pages_per_s"] = medianOf(plain, pagesPerS);
        metrics["host_req_per_s"] = medianOf(plain, [](const Rep &r) {
            return static_cast<double>(r.completed) / r.timedS;
        });
        metrics["setup_s"] = median(setups);
        struct rusage ru;
        getrusage(RUSAGE_SELF, &ru);
        metrics["peak_rss_mib"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
        metrics["ok_frac"] =
            static_cast<double>(ok) /
            static_cast<double>(std::max<std::uint64_t>(attempted, 1));
        for (const auto &[k, v] : plain.front().sim)
            metrics[k] = v;
    } else {
        auto layerMedians = [](const std::vector<Rep> &rs) {
            std::map<std::string, std::vector<double>> layer;
            for (const Rep &r : rs)
                for (const auto &[k, v] : r.layer)
                    layer[k].push_back(v);
            std::map<std::string, double> out;
            for (auto &[k, v] : layer)
                out[k] = median(std::move(v));
            return out;
        };
        metrics = layerMedians(reps[1]);
        metrics["obs.trace_overhead_frac"] =
            medianOf(reps[1], timedS) / medianOf(plain, timedS) - 1.0;
        metrics["sim.parallel_speedup"] = 0.0;
        if (cycle.size() > 2) {
            // Waves and lanes exist only with a worker pool: these come
            // from the traced parallel reps.
            const std::map<std::string, double> par = layerMedians(reps[3]);
            for (const char *k : {"sim.waves_per_req", "sim.wave_size_p50",
                                  "sim.heap_bypass_frac",
                                  "sim.pool_busy_frac"})
                metrics[k] = par.at(k);
            metrics["sim.parallel_speedup"] =
                medianOf(reps[2], pagesPerS) / medianOf(plain, pagesPerS);
        }
        if (!trace_out.empty()) {
            std::ofstream f(trace_out);
            const auto &s = kept.spans();
            f << kept.chromeJson(s.empty() ? 0 : s.front().start, 200000);
        }
    }

    const bool correct = deterministic && ok == attempted && attempted > 0;
    std::printf("{\"result\":{\"correct\":%s,\"deterministic\":%s,"
                "\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
                ",\"digest\":\"%016" PRIx64 "\",\"reps\":%zu,"
                "\"traced_reps\":%zu,\"sim\":%s,\"metrics\":%s}}\n",
                correct ? "true" : "false", deterministic ? "true" : "false",
                attempted, attempted - ok, plain.front().digest, plain.size(),
                trace ? reps[1].size() : std::size_t{0},
                metricsJson(plain.front().sim).c_str(),
                metricsJson(metrics).c_str());
    return correct ? 0 : 1;
}
