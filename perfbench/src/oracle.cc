#include "oracle.h"

#include "nand/page_store.h"
#include "util/rng.h"

namespace fcbench {

namespace {
/** Bound on cached pages (16 MiB at Table-1's 16-KiB pages). */
constexpr std::size_t kCachePages = 1024;
constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
} // namespace

void
StreamDigest::add(std::uint64_t index, const fcos::BitVector &page,
                  std::uint64_t bits)
{
    const std::uint64_t *w = page.words().data();
    const std::size_t full = bits / 64;
    std::uint64_t lane[4] = {1, 2, 3, 4};
    std::size_t i = 0;
    for (; i + 4 <= full; i += 4)
        for (std::size_t j = 0; j < 4; ++j)
            lane[j] = (lane[j] ^ w[i + j]) * kMul;
    for (; i < full; ++i)
        lane[0] = (lane[0] ^ w[i]) * kMul;
    if (bits % 64) {
        const std::uint64_t mask = (std::uint64_t{1} << (bits % 64)) - 1;
        lane[1] = (lane[1] ^ (w[full] & mask)) * kMul;
    }
    std::uint64_t d = index;
    for (std::uint64_t l : lane)
        d = fcos::Rng::mix(d, l);
    h_ = (h_ ^ d) * 1099511628211ULL;
}

fcos::nand::PageImage
randomPage(std::uint64_t seed_base, std::uint64_t j)
{
    return fcos::nand::PageImage::random(fcos::Rng::mix(seed_base, j));
}

ContentRef
randomContent(std::uint64_t seed_base)
{
    auto c = std::make_shared<Content>();
    c->seedBase = seed_base;
    return c;
}

ContentRef
exprContent(const fcos::core::Expr &expr,
            std::map<fcos::core::VectorId, ContentRef> leaves)
{
    auto c = std::make_shared<Content>();
    c->expr = std::make_shared<const fcos::core::Expr>(expr);
    c->leaves = std::move(leaves);
    return c;
}

fcos::BitVector
Oracle::page(const Content &c, std::uint64_t j)
{
    if (!c.expr) {
        const auto key = std::make_pair(c.seedBase, j);
        auto it = cache_.find(key);
        if (it == cache_.end()) {
            if (cache_.size() >= kCachePages)
                cache_.clear();
            it = cache_
                     .emplace(key,
                              randomPage(c.seedBase, j).materialize(page_bits_))
                     .first;
        }
        return it->second;
    }
    std::map<fcos::core::VectorId, fcos::BitVector> leaf_pages;
    for (const auto &[id, leaf] : c.leaves)
        leaf_pages.emplace(id, page(*leaf, j));
    return c.expr->evaluate(
        [&](fcos::core::VectorId id) -> const fcos::BitVector & {
            return leaf_pages.at(id);
        });
}

std::uint64_t
Oracle::expectedDigest(const Content &c, std::uint64_t pages)
{
    StreamDigest digest;
    for (std::uint64_t j = 0; j < pages; ++j)
        digest.add(j, page(c, j), page_bits_);
    return digest.value();
}

} // namespace fcbench
