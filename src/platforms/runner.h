/**
 * @file
 * The four evaluated computing platforms (paper Section 7), as
 * event-driven drivers over the unified execution engine:
 *
 *  - OSP (outside-storage processing): every operand page is sensed,
 *    moved over its channel, shipped across the external link, and
 *    folded by the host CPU. External I/O is the bottleneck (Fig. 7b).
 *
 *  - ISP (in-storage processing): operands stop at the per-channel
 *    accelerator (bitwise logic + 256-KiB SRAM); only results cross
 *    the external link. Internal channel I/O becomes the bottleneck
 *    (Fig. 7c).
 *
 *  - PB (ParaBit): in-flash serial sensing — one tR per operand — with
 *    latch accumulation; only result pages leave the dies (Fig. 7d).
 *
 *  - FC (Flash-Cosmos): MWS senses up to a NAND string's worth of
 *    operands per tMWS, with latch accumulation across commands
 *    (Section 6.1); only result pages leave the dies.
 *
 * The runner builds a chip farm from the SSD configuration and drives
 * the workload through engine::ComputeEngine's scheduler — the same
 * per-plane facilities, channel buses, external link and energy
 * ledger the functional drive uses, so every paper figure comes off
 * the engine's timeline.
 *
 * Channel symmetry: workloads stripe uniformly, so one channel is
 * simulated and shared resources (external link, host stream rate)
 * are given their per-channel fair share; energies that scale with
 * channel count are scaled back afterwards. Page streams are chunked
 * (<= 16 pages) to bound event counts at full workload scale; the
 * pipeline fill/drain behaviour is preserved.
 */

#ifndef FCOS_PLATFORMS_RUNNER_H
#define FCOS_PLATFORMS_RUNNER_H

#include <cstdint>

#include "core/result_sink.h"
#include "host/host_model.h"
#include "ssd/config.h"
#include "ssd/energy.h"
#include "util/bitvector.h"
#include "workloads/workload.h"

namespace fcos::plat {

enum class PlatformKind : std::uint8_t
{
    Osp,
    Isp,
    ParaBit,
    FlashCosmos,
};

const char *platformName(PlatformKind k);

struct RunResult
{
    Time makespan = 0;
    double energyJ = 0.0;
    ssd::EnergyMeter meter; ///< scaled to the whole SSD
    std::uint64_t senseOps = 0; ///< sensing operations, whole SSD
    /** Per-channel resource busy times (bottleneck analysis). */
    Time planeBusy = 0;
    Time channelBusy = 0;
    Time externalBusy = 0;
    Time hostBusy = 0;

    /** Bits per joule (Figure 18's metric, before normalization). */
    double bitsPerJoule(double computed_bits) const
    {
        return computed_bits / energyJ;
    }
};

class PlatformRunner
{
  public:
    explicit PlatformRunner(
        const ssd::SsdConfig &cfg = ssd::SsdConfig::table1(),
        const host::HostConfig &host_cfg = host::HostConfig{})
        : cfg_(cfg), host_cfg_(host_cfg)
    {}

    const ssd::SsdConfig &config() const { return cfg_; }

    /** Execute @p workload on platform @p kind. */
    RunResult run(PlatformKind kind, const wl::Workload &workload) const;

    /** A functional Flash-Cosmos execution: timing plus real bits. */
    struct FunctionalRun
    {
        RunResult timing;
        BitVector result;   ///< bits the engine's chips produced
        BitVector expected; ///< host-side reference fold
        bool bitExact() const { return result == expected; }
    };

    /** Stream accounting of a runFcStreamed execution. */
    struct StreamStats
    {
        std::uint64_t chunks = 0;      ///< result pages delivered
        /** Most result pages buffered at once while re-ordering
         *  out-of-order column completions (memory high-water mark). */
        std::uint64_t peakBufferedPages = 0;
    };

    /**
     * Run a Flash-Cosmos workload with *real* data through the engine,
     * streaming result pages into @p sink in page order as they come
     * off the farm: deterministic seeded operand pages are
     * ESP-programmed onto the farm's chips as procedural descriptors
     * (sparse page store — no payload materializes until sensed), the
     * batch expression is compiled by the core planner and lowered to
     * real MWS command chains (booked at the SSD's fixed tMWS, Section
     * 5.2), and the result pages read out over the channel / external
     * link exactly like the timing-only driver. Peak memory is the
     * re-ordering window, never the dense result — the beyond-DRAM
     * verification path.
     *
     * Supported batch shapes (they cover every figure workload):
     *  - pure AND: operands stack in one string chain (multiple MWS
     *    commands with AND-merge when they span sub-blocks);
     *  - pure OR: operands stored inverted, sensed with inverse MWS
     *    (the §6.1 De Morgan path), OR-merged across chunks;
     *  - AND + m OR operands: up to 3 OR operands join the AND command
     *    as extra strings (the KCS fusion); wider mixed batches split
     *    the OR operands into follow-up OR-merge commands.
     * The planner's command count is asserted equal to
     * fcSensesPerRow() per row, so the timing driver's sense count is
     * certified, not just approximated.
     */
    RunResult runFcStreamed(const wl::Workload &workload,
                            std::uint64_t seed, core::ResultSink &sink,
                            StreamStats *stream_stats = nullptr) const;

    /**
     * The host-side reference page for result slot @p page of
     * runFcStreamed(@p workload, @p seed): a pure function of the seed
     * (the fold of the operand PageImage descriptors), so a streaming
     * comparator (core::SparseCompareSink) can verify a beyond-DRAM
     * result one chunk at a time without ever holding the dense
     * reference.
     */
    BitVector fcFunctionalExpectedPage(const wl::Workload &workload,
                                       std::uint64_t seed,
                                       std::uint64_t page) const;

    /**
     * Dense-collect wrapper over runFcStreamed: assembles the streamed
     * chunks into FunctionalRun::result and the per-page reference
     * fold into FunctionalRun::expected. Timing, energy, and bits are
     * identical to the streamed path (it *is* the streamed path).
     */
    FunctionalRun runFcFunctional(const wl::Workload &workload,
                                  std::uint64_t seed = 1) const;

    /**
     * Sensing operations per result row for Flash-Cosmos, given the
     * batch shape (exposed for tests and the ablation benches).
     * @param max_wordlines  intra-block MWS width (string length)
     * @param max_strings    strings per command (inter-block cap)
     */
    static std::uint64_t fcSensesPerRow(std::uint64_t and_operands,
                                        std::uint64_t or_operands,
                                        std::uint32_t max_wordlines,
                                        std::uint32_t max_strings);

  private:
    ssd::SsdConfig cfg_;
    host::HostConfig host_cfg_;
};

} // namespace fcos::plat

#endif // FCOS_PLATFORMS_RUNNER_H
