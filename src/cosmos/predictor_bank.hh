/**
 * @file
 * A machine-wide bank of message predictors.
 *
 * The paper allocates one Cosmos predictor beside every cache and
 * every directory module (§3.2). PredictorBank instantiates one
 * predictor per (node, role), routes trace records to the right
 * instance, and aggregates accuracy (Table 5), arc statistics
 * (Figures 6/7), and memory accounting (Table 7).
 *
 * Because the paper evaluates prediction in isolation, a single
 * simulated trace can be replayed through banks of any configuration
 * -- depth and filter sweeps reuse one simulation.
 *
 * Production replay runs the batched path (replayBatched,
 * observeChunk). The scalar replay() is the test oracle that
 * every batched and sharded result must equal bit for bit.
 */

#ifndef COSMOS_COSMOS_PREDICTOR_BANK_HH
#define COSMOS_COSMOS_PREDICTOR_BANK_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/flat_map.hh"
#include "obs/metrics.hh"
#include "cosmos/accuracy.hh"
#include "cosmos/arc_stats.hh"
#include "cosmos/batch.hh"
#include "cosmos/cosmos_predictor.hh"
#include "cosmos/memory_stats.hh"
#include "cosmos/predictor.hh"
#include "trace/trace.hh"

namespace cosmos::pred
{

/** Creates one predictor instance for a given (node, role). */
using PredictorFactory =
    std::function<std::unique_ptr<MessagePredictor>(NodeId,
                                                    proto::Role)>;

/** Bank of per-module predictors with aggregated statistics. */
class PredictorBank
{
  public:
    /** Bank of Cosmos predictors with the given configuration. */
    PredictorBank(NodeId num_nodes, const CosmosConfig &cfg);

    /** Bank of arbitrary predictors (directed baselines, etc.). */
    PredictorBank(NodeId num_nodes, PredictorFactory factory);

    /** Feed one trace record to its (node, role) predictor. */
    void observe(const trace::TraceRecord &r);

    /**
     * Scalar replay of a whole trace, one observe() per record in
     * trace order. Records with iteration > @p max_iteration are
     * skipped (Table 8 replays prefixes of one trace). This is the
     * reference the batched and sharded paths are tested against;
     * production callers use replayBatched().
     */
    void replay(const trace::Trace &t,
                std::int32_t max_iteration = INT32_MAX);

    /**
     * Batched replay: stage-then-apply over fixed-size batches (see
     * cosmos/batch.hh). Bit-identical counters to the scalar replay()
     * -- the batch pipeline changes only when memory is touched,
     * never what is computed. Non-Cosmos banks fall back to the
     * scalar loop (their virtual observe dominates anyway).
     */
    void replayBatched(const trace::Trace &t,
                       std::int32_t max_iteration = INT32_MAX,
                       const BatchConfig &bc = {});

    /**
     * Feed one contiguous chunk of records through the batched path.
     * Successive calls continue one replay; the pointer only needs to
     * live for the call.
     */
    void observeChunk(const trace::TraceRecord *recs, std::size_t n,
                      std::int32_t max_iteration = INT32_MAX,
                      const BatchConfig &bc = {});

    /**
     * Pre-size every predictor's block table from a
     * trace::moduleBlockCensus() vector (index 2*node + role), so a
     * subsequent replay performs no block-table rehash at all. A
     * shorter census vector reserves only the modules it covers.
     */
    void reserveFromCensus(const std::vector<std::uint32_t> &census);

    const AccuracyTracker &accuracy() const { return accuracy_; }
    const ArcStats &arcs(proto::Role role) const;

    /**
     * Aggregate Table 7 memory accounting. Only meaningful for banks
     * of Cosmos predictors; panics otherwise.
     */
    MemoryStats memoryStats() const;

    /**
     * Publish predictor observability into @p reg under @p prefix.
     * Only meaningful for Cosmos banks. Stable metrics (counters):
     * MHR/PHT entry counts, which are pure functions of the replayed
     * records. Volatile metrics: block-table load factors, the
     * probe-length histogram, and arena bytes -- these depend on per-
     * instance table growth history and differ between serial and
     * sharded replays, so they never enter the stable JSON export.
     */
    void publishMetrics(obs::Registry &reg,
                        const std::string &prefix = "pred") const;

    /** The predictor instance beside node @p n in role @p role. */
    MessagePredictor &predictor(NodeId n, proto::Role role);
    const MessagePredictor &predictor(NodeId n, proto::Role role) const;

    NodeId numNodes() const { return numNodes_; }

  private:
    std::size_t index(NodeId n, proto::Role role) const;

    /**
     * Apply one batch observeChunk() staged into stage_,
     * module-major: the batch is stably partitioned by destination
     * module and each module's slice runs the probe/apply pipeline
     * consecutively. Cosmos banks only.
     */
    void applyStaged(const SoaBatch &batch, const BatchConfig &bc);

    /**
     * Two-pass probe/apply pipeline over one module's slice of a
     * module-major window: sub-batches of BatchConfig::depth are
     * probed (with slot prefetch BatchConfig::prefetchDistance
     * elements ahead) and then applied in order against one hoisted
     * predictor.
     */
    void applySlice(CosmosPredictor &p, bool dir_side,
                    const Addr *blocks, const std::uint16_t *tuples,
                    const std::int32_t *iters, std::size_t n,
                    const BatchConfig &bc);

    NodeId numNodes_;
    unsigned cosmosDepth_ = 0; ///< nonzero iff a Cosmos bank
    std::vector<std::unique_ptr<MessagePredictor>> predictors_;
    AccuracyTracker accuracy_;
    ArcStats cacheArcs_;
    ArcStats dirArcs_;
    /// last incoming message type per (node, role, block), feeding
    /// the arc statistics.
    FlatMap<std::uint64_t, proto::MsgType> lastType_;
    /// reused SoA staging buffer of the batched replay paths; bounds
    /// batched-replay scratch at BatchConfig::window elements.
    SoaBatch stage_;
    /// module-major reorder target: stage_ stably partitioned by
    /// (module, block-hash) bucket (modules array unused -- the
    /// partition bounds carry that information).
    SoaBatch sorted_;
    /// counting-sort scratch: per-element bucket keys, bucket
    /// boundaries, and scatter cursors.
    std::vector<std::uint32_t> keys_, cnt_, pos_;
    /// probe-pass scratch of applySlice: per-element block refs
    /// (stable node pointers; null for never-seen blocks).
    std::vector<void *> refs_;
};

} // namespace cosmos::pred

#endif // COSMOS_COSMOS_PREDICTOR_BANK_HH
