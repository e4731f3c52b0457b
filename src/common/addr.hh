/**
 * @file
 * Address arithmetic: cache-block and page decomposition of the
 * simulated shared-memory address space, plus the round-robin page-home
 * mapping that Stache uses (paper §5.1).
 */

#ifndef COSMOS_COMMON_ADDR_HH
#define COSMOS_COMMON_ADDR_HH

#include <cstdint>

#include "common/log.hh"
#include "common/types.hh"

namespace cosmos
{

/**
 * Shard index of @p block among @p shards block shards.
 *
 * Deterministic (a fixed splitmix64 finalizer, no process-dependent
 * hashing) so shard layouts are reproducible across runs and builds.
 * pred::ShardedPredictorBank routes records with it, and every
 * record of a block lands in that block's shard, which is what makes
 * per-shard statistics sum to a serial replay's.
 */
inline unsigned
blockShardOf(Addr block, unsigned shards)
{
    cosmos_assert(shards > 0, "shard count must be positive");
    // Block addresses are block-aligned, so the low bits carry no
    // entropy; mix before reducing.
    std::uint64_t x = block;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<unsigned>(x % shards);
}

/**
 * Immutable description of the address-space geometry.
 *
 * Block size and page size must be powers of two; the defaults match
 * the paper's Table 3 (64-byte cache blocks) and Stache's 4 KB pages.
 */
class AddrMap
{
  public:
    AddrMap(unsigned block_bytes, unsigned page_bytes, NodeId num_nodes);

    /** Geometry accessors. */
    unsigned blockBytes() const { return blockBytes_; }
    unsigned pageBytes() const { return pageBytes_; }
    NodeId numNodes() const { return numNodes_; }

    /** Align @p a down to its containing cache block. */
    Addr blockBase(Addr a) const { return a & ~Addr{blockBytes_ - 1}; }

    /** Index of the cache block containing @p a. */
    std::uint64_t blockIndex(Addr a) const { return a >> blockShift_; }

    /** Align @p a down to its containing page. */
    Addr pageBase(Addr a) const { return a & ~Addr{pageBytes_ - 1}; }

    /** Index of the page containing @p a. */
    std::uint64_t pageIndex(Addr a) const { return a >> pageShift_; }

    /**
     * Home node of the page containing @p a.
     *
     * Stache allocates pages round-robin across nodes: page X on node
     * X mod N, page X+1 on node (X+1) mod N (paper §5.1).
     */
    NodeId home(Addr a) const
    {
        return static_cast<NodeId>(pageIndex(a) % numNodes_);
    }

    /** Number of whole blocks per page. */
    unsigned blocksPerPage() const { return pageBytes_ / blockBytes_; }

  private:
    unsigned blockBytes_;
    unsigned pageBytes_;
    NodeId numNodes_;
    unsigned blockShift_;
    unsigned pageShift_;
};

} // namespace cosmos

#endif // COSMOS_COMMON_ADDR_HH
