/**
 * @file
 * Sharded bulk bitwise operations: how one logical operation is
 * partitioned across the farm's dies and merged back together.
 *
 * A bulk operation over page-striped vectors decomposes into
 * independent *column programs* — one per (die, plane) page column —
 * because every NAND-side primitive (MWS sense, latch XOR, program-
 * from-latch) touches exactly one plane's latch pair. The sharding
 * rules are:
 *
 *  - page j of a striped vector lives on column (j mod columns), so a
 *    vector of P pages shards into P column programs spread round-robin
 *    over every die — all dies compute at once;
 *
 *  - operands combined by one program must be co-located on the
 *    column's die (Equation 1: only wordlines of the same plane's
 *    strings can be sensed together). Operands that are not — e.g. a
 *    single-page vector combined against striped ones — must first be
 *    *replicated* to each target column (ComputeEngine::broadcastPage),
 *    paying channel time for the copies;
 *
 *  - per-die results are merged by the submitter: each program's
 *    result page returns through its onResult callback (after channel
 *    readout), and the caller pastes pages back into the logical
 *    result vector.
 *
 * Within a program, steps execute in order on the die; across
 * programs, the scheduler interleaves dies by simulated time. A
 * program's steps never interleave with another program on the same
 * die (the per-die FIFO keeps latch state coherent).
 */

#ifndef FCOS_ENGINE_SHARDED_OP_H
#define FCOS_ENGINE_SHARDED_OP_H

#include <cstdint>
#include <functional>
#include <vector>

#include "engine/chip_farm.h"
#include "util/bitvector.h"

namespace fcos::engine {

/** What a step does — drives stats and energy classification. */
enum class StepKind : std::uint8_t
{
    Sense,    ///< MWS sense command
    LatchXor, ///< on-chip C := S XOR C
    PageRead, ///< regular serial page read (fallback path)
    Program,  ///< page program (data-in or program-from-latch)
    OrDump,   ///< legacy cache-read OR transfer (no array activity)
    Copyback, ///< in-plane read + program (GC relocation; no channel)
    Erase,    ///< block erase (GC capacity reclaim)
};

/** One die-local step of a column program. */
struct ColumnStep
{
    StepKind kind = StepKind::Sense;
    /** Functional mutation; returns the op's latency and energy. */
    std::function<nand::OpResult(nand::NandChip &)> run;
    /** Channel bytes shipped die -> controller after this step
     *  (fallback page readout; pipelined with later steps). */
    std::uint64_t dmaAfterBytes = 0;
    /** Channel bytes shipped controller -> die before this step
     *  (program data-in; the die waits for the transfer). */
    std::uint64_t dmaBeforeBytes = 0;
};

/**
 * The unit of sharded execution: an ordered step list against one
 * (die, plane) column, with optional result readout.
 */
struct ColumnProgram
{
    std::uint32_t die = 0;
    std::uint32_t plane = 0;
    std::vector<ColumnStep> steps;

    /** Read the cache latch out over the channel after the last step
     *  and hand it to onResult. False for compute-in-place programs
     *  (program-from-latch) where data never leaves the die. */
    bool readOutResult = true;
    /**
     * Deliver the payload to onResult at the latch-capture instant
     * (last step's completion) instead of holding it inside the DMA
     * completion closure. The readout DMA is still booked — timing and
     * energy are identical — but the engine never buffers in-flight
     * pages, which is what keeps streamed (ResultSink) reads O(chunk)
     * when channels back up behind fast senses. onComplete still fires
     * at DMA completion.
     */
    bool resultAtCapture = false;
    /** Receives the result page (at DMA completion by default, at
     *  capture when resultAtCapture is set). */
    std::function<void(BitVector)> onResult;
    /** Fires once every step (and result readout) completed. */
    std::function<void()> onComplete;
};

/** Execution counters, tallied as each step commits (the base of the
 *  drive's per-request record, FlashCosmosDrive::ReadStats). */
struct OpStats
{
    std::uint64_t mwsCommands = 0; ///< MWS sense commands issued
    std::uint64_t senses = 0;      ///< total sensing operations
    std::uint64_t latchXors = 0;   ///< on-chip XOR ops
    std::uint64_t pageReads = 0;   ///< fallback serial page reads
    std::uint64_t programs = 0;    ///< page programs
    std::uint64_t resultPages = 0; ///< pages read out of the chips
    std::uint64_t copybacks = 0;   ///< GC in-plane page relocations
    std::uint64_t erases = 0;      ///< GC block erases
    Time nandTime = 0;             ///< summed NAND busy time
    double nandEnergyJ = 0.0;      ///< summed NAND energy

    void tally(StepKind kind, const nand::OpResult &op);
};

/** A bulk operation sharded into per-column programs. */
class ShardedOp
{
  public:
    ShardedOp() = default;

    void add(ColumnProgram program)
    {
        programs_.push_back(std::move(program));
    }

    std::vector<ColumnProgram> &programs() { return programs_; }
    const std::vector<ColumnProgram> &programs() const
    {
        return programs_;
    }

    std::size_t columnCount() const { return programs_.size(); }

    /** Programs per die — the partition the sharding produced. */
    std::vector<std::uint32_t>
    partition(std::uint32_t die_count) const;

    /** Number of distinct dies this op computes on. */
    std::uint32_t diesTouched(std::uint32_t die_count) const;

  private:
    std::vector<ColumnProgram> programs_;
};

} // namespace fcos::engine

#endif // FCOS_ENGINE_SHARDED_OP_H
