/**
 * @file
 * Bridges the analytic V_TH model into the functional NAND chip:
 * flips sensed bits with the page's analytic RBER.
 *
 * The injector draws the *number* of errors per page from
 * Binomial(page_bits, rber) and then picks positions uniformly —
 * statistically identical to per-cell Bernoulli trials but O(errors)
 * instead of O(bits). Sampling is deterministic in
 * (seed, page): repeated campaigns reproduce exactly.
 */

#ifndef FCOS_RELIABILITY_ERROR_INJECTOR_H
#define FCOS_RELIABILITY_ERROR_INJECTOR_H

#include <atomic>
#include <cstdint>

#include "nand/cell_array.h"
#include "reliability/vth_model.h"
#include "util/rng.h"

namespace fcos::rel {

class VthErrorInjector : public nand::ErrorInjector
{
  public:
    /**
     * @param model    analytic reliability model
     * @param cond     operating condition applied to all reads
     * @param quality  per-block sigma multiplier
     * @param seed     base seed for deterministic sampling
     */
    VthErrorInjector(const VthModel &model, OperatingCondition cond,
                     double quality = 1.0, std::uint64_t seed = 1)
        : model_(model), cond_(cond), quality_(quality), base_seed_(seed)
    {}

    /** Update the operating condition (e.g. ageing between reads). */
    void setCondition(const OperatingCondition &cond) { cond_ = cond; }
    const OperatingCondition &condition() const { return cond_; }

    void setQuality(double q) { quality_ = q; }

    /** Total bit errors injected so far (campaign bookkeeping). */
    std::uint64_t injectedErrors() const { return injected_.load(); }

    /** Total bits sensed through the injector. */
    std::uint64_t sensedBits() const { return sensed_bits_.load(); }

    void inject(BitVector &bits, const nand::PageMeta &meta,
                std::uint64_t seed) override;

  private:
    const VthModel &model_;
    OperatingCondition cond_;
    double quality_;
    std::uint64_t base_seed_;
    /** inject() runs in the engine's parallel worker phase; the flip
     *  pattern is a pure function of (seed, page) so the only shared
     *  state is these commutative tallies — atomics keep them exact
     *  under any worker count. */
    std::atomic<std::uint64_t> injected_{0};
    std::atomic<std::uint64_t> sensed_bits_{0};
};

} // namespace fcos::rel

#endif // FCOS_RELIABILITY_ERROR_INJECTOR_H
