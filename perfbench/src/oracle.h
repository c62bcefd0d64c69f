/**
 * @file
 * Host-side oracle: what every byte the drive returns must be.
 *
 * The benchmark writes only procedural pages (nand::PageImage::random
 * of a seed it chose), so the logical content of every stored vector
 * is a small descriptor: a seed base, or an expression over other
 * vectors' contents (an in-flash compute result). A read records the
 * descriptor of what it reads *at submit*; after the timed section the
 * oracle regenerates each expected page with PageImage::materialize,
 * folds expressions with the reference evaluator (Expr::evaluate, a
 * host-side fold independent of the planner and the NAND model), and
 * compares the stream digest with the one the read delivered.
 */

#ifndef FCBENCH_ORACLE_H
#define FCBENCH_ORACLE_H

#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include "core/expression.h"
#include "nand/page_store.h"
#include "util/bitvector.h"

namespace fcbench {

struct Content;
using ContentRef = std::shared_ptr<const Content>;

/** Logical content of a vector: page j is PageImage::random(
 *  Rng::mix(seedBase, j)) when @c expr is null, else @c expr evaluated
 *  over page j of its leaves' contents. */
struct Content
{
    std::uint64_t seedBase = 0;
    std::shared_ptr<const fcos::core::Expr> expr;
    std::map<fcos::core::VectorId, ContentRef> leaves;
};

/**
 * Order-sensitive digest of a result stream: each page's valid bits are
 * hashed word-at-a-time in four independent xor-multiply lanes (cheap
 * enough to run inside the timed section on every result page), then
 * folded with the page index.
 */
class StreamDigest
{
  public:
    void add(std::uint64_t index, const fcos::BitVector &page,
             std::uint64_t bits);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 14695981039346656037ULL;
};

/** Page generator of a random content (what fcWritePages receives). */
fcos::nand::PageImage randomPage(std::uint64_t seed_base, std::uint64_t j);

ContentRef randomContent(std::uint64_t seed_base);

/** Content of @p expr over the current contents of its leaves. */
ContentRef exprContent(const fcos::core::Expr &expr,
                       std::map<fcos::core::VectorId, ContentRef> leaves);

class Oracle
{
  public:
    explicit Oracle(std::uint64_t page_bits) : page_bits_(page_bits) {}

    /** StreamDigest of a @p pages -page stream of @p c. */
    std::uint64_t expectedDigest(const Content &c, std::uint64_t pages);

    /** Drop the cached materialized pages. */
    void clear() { cache_.clear(); }

  private:
    fcos::BitVector page(const Content &c, std::uint64_t j);

    std::uint64_t page_bits_;
    /** Materialized random pages, keyed by (seed base, page index). */
    std::map<std::pair<std::uint64_t, std::uint64_t>, fcos::BitVector>
        cache_;
};

} // namespace fcbench

#endif // FCBENCH_ORACLE_H
