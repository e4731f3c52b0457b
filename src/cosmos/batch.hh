/**
 * @file
 * Batched SoA staging for the predictor observe hot path.
 *
 * The scalar replay loop walks an array of 40-byte TraceRecords and,
 * per record, probes two hash tables whose slots it has never seen --
 * the block-table probe is a dependent cache miss sitting squarely on
 * the critical path. The batch layer restructures the loop around
 * fixed-size batches:
 *
 *  - pass 1 (stage) decodes a window of records into a structure-of-
 *    arrays buffer: block addresses, encoded <sender,type> tuples,
 *    module indices, and iterations in four dense arrays (16 hot
 *    bytes per record instead of 40), then stably counting-sorts the
 *    window by (module, block-hash) so each predictor's records --
 *    and within them each block's records -- replay back-to-back;
 *  - pass 2 (apply) walks each module slice and performs the
 *    ordinary scalar observe per element, probing the block table
 *    once per same-block run with a software prefetch issued a fixed
 *    distance ahead, so probe latency overlaps preceding updates.
 *
 * Because pass 2 performs exactly the scalar path's observe calls in
 * an order that preserves every (module, block) subsequence -- the
 * only order any Table 5/6/8 counter depends on -- all counters are
 * bit-identical to an unbatched replay; the golden suite gates on
 * this.
 *
 * The sharded bank (sharded_bank.hh) routes whole records instead:
 * it copies each chunk's TraceRecords into per-shard buffers by
 * block, and each shard's bank stages its buffer into this SoA form
 * in observeChunk() and applies it independently.
 */

#ifndef COSMOS_COSMOS_BATCH_HH
#define COSMOS_COSMOS_BATCH_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "cosmos/tuple.hh"
#include "trace/trace.hh"

namespace cosmos::pred
{

/** Tunables of the batched observe pipeline. */
struct BatchConfig
{
    /**
     * Records staged per probe/apply sub-batch. Bounds the span
     * between an element's probe and its apply, so the lines the
     * probe pass warmed are still resident when the apply pass needs
     * them.
     */
    unsigned depth = 512;

    /**
     * How many elements ahead of the probe cursor the block-table
     * slot prefetch is issued. Far enough to cover a memory access,
     * near enough that the line survives until use.
     */
    unsigned prefetchDistance = 8;

    /**
     * Records per module-major window. Within a window, staged
     * records are stably partitioned by destination module and each
     * module's slice replays consecutively, so one predictor's
     * tables stay cache-hot for the whole slice. Per-(module, block)
     * record order -- the only order the counters depend on -- is
     * preserved, so results are bit-identical to trace-order replay.
     * Bounds batched-replay scratch memory at ~40 bytes per record.
     */
    std::size_t window = 1u << 18;

    /**
     * Block-grouping hash bits inside each module's partition: the
     * counting-sort key is (module << groupBits) | hash(block). All
     * of one block's records in a window land in one bucket, so they
     * replay back-to-back and the apply pass resolves the block's
     * state node once per run instead of once per record (dsmc
     * averages ~12 records per (module, block)). The sort is stable,
     * so per-(module, block) order is preserved and counters stay
     * bit-identical; hash collisions only interleave groups, they
     * never reorder one block's records. Clamped per bank so the
     * bucket array stays small enough to reset per window.
     */
    unsigned groupBits = 11;
};

/**
 * Structure-of-arrays staging buffer: element i of every array
 * describes staged record i. The arrays are parallel, sized once by
 * ensure(), and filled through a running count so the staging pass
 * pays one bounds check per record rather than one vector capacity
 * check per array per record.
 */
struct SoaBatch
{
    /** Block addresses (the block-table probe keys). */
    std::vector<Addr> blocks;
    /** MsgTuple::encode() of each <sender, type>. */
    std::vector<std::uint16_t> tuples;
    /** 2 * receiver + (role == directory): the bank's module index. */
    std::vector<std::uint16_t> modules;
    /** Iteration tags (accuracy-by-iteration bookkeeping). */
    std::vector<std::int32_t> iterations;
    /** Elements staged since the last clear(). */
    std::size_t count = 0;

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    std::size_t capacity() const { return blocks.size(); }

    void clear() { count = 0; }

    /** Size every array for at least @p n staged records. */
    void
    ensure(std::size_t n)
    {
        if (blocks.size() < n) {
            blocks.resize(n);
            tuples.resize(n);
            modules.resize(n);
            iterations.resize(n);
        }
    }

    /** Stage one record; ensure() must already cover it. Records
     *  above the caller's iteration cap are the caller's business to
     *  filter. */
    void
    push(const trace::TraceRecord &r)
    {
        cosmos_assert(count < blocks.size(), "SoaBatch overflow");
        blocks[count] = r.block;
        tuples[count] = MsgTuple{r.sender, r.type}.encode();
        modules[count] = static_cast<std::uint16_t>(
            2u * r.receiver +
            (r.role == proto::Role::directory ? 1 : 0));
        iterations[count] = r.iteration;
        ++count;
    }
};

} // namespace cosmos::pred

#endif // COSMOS_COSMOS_BATCH_HH
