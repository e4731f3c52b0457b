/**
 * @file
 * A block-sharded bank of predictor banks for parallel replay.
 *
 * Cosmos state is per cache block (§3.1), so a record stream can be
 * partitioned by block hash and every partition replayed through its
 * own PredictorBank with zero cross-partition communication: no
 * locks, no atomics, no false sharing -- each shard owns a private
 * bump arena, block table, and statistics. Summing the (integer)
 * per-shard counters in shard-index order is bit-identical to a
 * serial replay.
 *
 * This is the tree's one block-sharding path. replay::SweepEngine
 * feeds a materialised trace through it in 64k-record chunks, and
 * streaming callers (harness::TrafficConfig::recordSink) feed it the
 * simulator's chunks as they arrive. Either way a caller stages each
 * chunk into per-shard record buffers with stageChunk(), then worker
 * threads call applyShard() concurrently -- distinct shards touch
 * disjoint state, so no synchronization beyond the caller's join is
 * needed.
 *
 * NUMA note: a shard's arena and tables are allocated lazily, on
 * first insertion -- i.e. inside the first applyShard() call that
 * touches them. Under a first-touch page policy, pinning each shard
 * to one worker therefore places its entire working set on that
 * worker's local node. The tree does not bind threads itself (no
 * libnuma in the toolchain); the layout falls out of first touch.
 */

#ifndef COSMOS_COSMOS_SHARDED_BANK_HH
#define COSMOS_COSMOS_SHARDED_BANK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cosmos/predictor_bank.hh"

namespace cosmos::pred
{

/** K independent PredictorBanks, records routed by block hash. */
class ShardedPredictorBank
{
  public:
    /**
     * A bank of @p shards Cosmos banks, each covering every
     * (node, role) module for its share of the block space.
     */
    ShardedPredictorBank(NodeId num_nodes, const CosmosConfig &cfg,
                         unsigned shards);

    unsigned shards() const
    {
        return static_cast<unsigned>(banks_.size());
    }
    NodeId numNodes() const { return numNodes_; }

    /**
     * Route a chunk of records into per-shard staging buffers,
     * replacing the previous staging. Records keep chunk order
     * within each shard, and every record of one block lands in
     * exactly one shard (common/addr.hh blockShardOf), so per-shard
     * applies reproduce the serial per-block order exactly.
     */
    void stageChunk(const trace::TraceRecord *recs, std::size_t n);

    /**
     * Apply shard @p s's staged records through its bank's batched
     * observe path. Safe to call concurrently for distinct shards:
     * each call touches only its own bank and staging buffer.
     */
    void applyShard(unsigned s,
                    std::int32_t max_iteration = INT32_MAX,
                    const BatchConfig &bc = {});

    /** stageChunk + applyShard over all shards, serially. */
    void observeChunk(const trace::TraceRecord *recs, std::size_t n,
                      std::int32_t max_iteration = INT32_MAX,
                      const BatchConfig &bc = {});

    /**
     * Pre-size every shard bank from a trace::moduleBlockCensus()
     * vector. Blocks split across shards by hash, so each shard
     * reserves census[m] / shards (rounded up) blocks per module --
     * slightly generous for skewed hashes, which only means a little
     * slack, never a mid-replay rehash for even splits.
     */
    void reserveFromCensus(const std::vector<std::uint32_t> &census);

    /** Merged statistics, folded in shard-index order (deterministic
     *  for any shard count; AccuracyTracker::merge is integer
     *  addition, so the fold order cannot change any value). */
    AccuracyTracker accuracy() const;
    ArcStats arcs(proto::Role role) const;
    MemoryStats memoryStats() const;

    /**
     * Publish per-shard occupancy (records applied per shard, a
     * stable counter) plus each shard bank's own metrics under
     * "<prefix>.shard<K>". Shard occupancy shows routing balance;
     * a pathological hash would surface here as skew.
     */
    void publishMetrics(obs::Registry &reg,
                        const std::string &prefix = "pred") const;

    /** Direct access to shard @p s's bank (tests, metrics). */
    PredictorBank &shardBank(unsigned s) { return *banks_[s]; }
    const PredictorBank &shardBank(unsigned s) const
    {
        return *banks_[s];
    }

    /** Records currently staged for shard @p s. */
    std::size_t stagedRecords(unsigned s) const
    {
        return staged_[s].size();
    }

  private:
    NodeId numNodes_;
    std::vector<std::unique_ptr<PredictorBank>> banks_;
    /// per-shard staging: chunk records routed by block hash
    std::vector<std::vector<trace::TraceRecord>> staged_;
    /// records applied per shard since construction (occupancy)
    std::vector<std::uint64_t> applied_;
};

} // namespace cosmos::pred

#endif // COSMOS_COSMOS_SHARDED_BANK_HH
