/**
 * @file
 * The benchmark's four workloads. Each rep builds a fresh drive from
 * the seed (set-up), runs a fixed, seed-determined amount of work
 * through the public FlashCosmosDrive API (the timed section), then
 * checks every returned byte against the host-side oracle (untimed).
 * Because the work of a rep is fixed, every simulated statistic and
 * the result digest of a rep are a pure function of (workload, seed):
 * reps of one run must agree on them exactly.
 */

#ifndef FCBENCH_WORKLOADS_H
#define FCBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace fcbench {

struct RepParams
{
    std::uint64_t seed = 1;
    std::uint32_t workers = 1;
    /** Traced rep: receives the timed section's spans, and the obs
     *  metrics registry is read. Null for untraced reps. */
    SpanRecorder *spans = nullptr;
    /** Stop after set-up (extra set-up time samples). */
    bool setupOnly = false;
};

struct Rep
{
    double setupS = 0.0;  ///< drive construction + preload
    double timedS = 0.0;  ///< timed section wall time
    double checkS = 0.0;  ///< oracle check wall time (untimed)
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0;
    std::uint64_t ok = 0; ///< completed, and bytes matched the oracle
    std::uint64_t hostPages = 0; ///< programmed + GC copies + results
    std::uint64_t digest = 0;    ///< fold of every result stream
    /** Simulated statistics: identical in every rep of a seed. */
    std::map<std::string, double> sim;
    /** Per-layer values measured from outside the program. */
    std::map<std::string, double> layer;
};

struct Workload
{
    const char *name;
    /** Requests one rep submits (nominal; failure accounting). */
    std::uint64_t plannedRequests;
    Rep (*run)(const RepParams &);
    /** Traced runs also interleave reps at this many workers (0: none);
     *  they must reproduce the 1-worker simulation exactly. */
    std::uint32_t parallelWorkers;
};

/** All workloads, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

} // namespace fcbench

#endif // FCBENCH_WORKLOADS_H
