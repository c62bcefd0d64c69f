/**
 * @file
 * In-storage processing (ISP) accelerator — the per-channel bitwise
 * engine baseline (paper Section 7: "simple bitwise logic and a
 * 256-KiB SRAM buffer" in the SSD controller).
 *
 * The functional model streams pages from the dies and folds them into
 * an SRAM-resident accumulator; only the final result leaves the SSD.
 * Its timing/energy behaviour in the system evaluation is modelled by
 * engine::CommandScheduler::submitAccel (channel-rate streaming,
 * 93 pJ per 64-B op).
 */

#ifndef FCOS_ISP_ACCELERATOR_H
#define FCOS_ISP_ACCELERATOR_H

#include <cstdint>

#include "util/bitvector.h"

namespace fcos::isp {

enum class AccelOp : std::uint8_t
{
    And,
    Or,
    Xor,
};

class IspAccelerator
{
  public:
    /** @param sram_bytes  accumulator capacity (Table 1: 256 KiB). */
    explicit IspAccelerator(std::size_t sram_bytes = 256 * 1024)
        : sram_bytes_(sram_bytes)
    {}

    std::size_t sramBytes() const { return sram_bytes_; }

    /**
     * Start a new accumulation of @p result_bits bits. Fatal if the
     * result does not fit in SRAM — larger results must be processed
     * in tiles, which is what the platform driver does.
     */
    void begin(AccelOp op, std::size_t result_bits);

    /** Fold one operand tile into the accumulator. */
    void consume(const BitVector &tile);

    /** Number of tiles folded since begin(). */
    std::uint64_t tilesConsumed() const { return tiles_; }

    /** Finished accumulator value. */
    const BitVector &result() const { return acc_; }

  private:
    std::size_t sram_bytes_;
    AccelOp op_ = AccelOp::And;
    BitVector acc_;
    std::uint64_t tiles_ = 0;
    bool first_ = true;
};

} // namespace fcos::isp

#endif // FCOS_ISP_ACCELERATOR_H
