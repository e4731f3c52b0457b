/**
 * @file
 * Parallel predictor-configuration sweeps over message traces.
 *
 * The paper's evaluation replays the same traces through many Cosmos
 * configurations (Tables 5-8 are (app x depth x filter x run-length)
 * grids). Each cell is independent, and within a cell prediction is
 * per-block, so the engine parallelizes on two axes:
 *
 *  - across ReplayJobs: every grid cell runs as its own pool task;
 *  - within a job: when cells are scarcer than workers, the job
 *    replays through one pred::ShardedPredictorBank. The trace is fed
 *    in 64k-record chunks; each chunk is staged by block shard
 *    (common/addr.hh blockShardOf) and the shards apply concurrently
 *    on the pool.
 *
 * All statistics are integer counters, and the sharded bank folds
 * them in shard-index order, so sweep results are bit-identical to a
 * serial replay regardless of thread or shard count.
 */

#ifndef COSMOS_REPLAY_SWEEP_HH
#define COSMOS_REPLAY_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "cosmos/accuracy.hh"
#include "cosmos/arc_stats.hh"
#include "cosmos/cosmos_predictor.hh"
#include "cosmos/memory_stats.hh"
#include "replay/thread_pool.hh"
#include "trace/trace.hh"

namespace cosmos::replay
{

/** One sweep cell: which trace, and which predictor configuration. */
struct ReplayJob
{
    std::string app;
    /** Traced iterations; -1 = workload default. */
    int iterations = -1;
    OwnerReadPolicy policy = OwnerReadPolicy::half_migratory;
    std::uint64_t seed = 0x5eedc05305ULL;
    /** Predictor configuration replayed over the trace. */
    pred::CosmosConfig config{};
    /** Replay only records with iteration <= this (Table 8 prefixes). */
    std::int32_t maxIteration = INT32_MAX;
    /** Block shards within this job; 0 = engine decides. */
    unsigned shards = 0;
};

/** Everything a sweep cell produces. */
struct ReplayResult
{
    pred::AccuracyTracker accuracy;
    pred::ArcStats cacheArcs;
    pred::ArcStats directoryArcs;
    pred::MemoryStats memory;
};

/** Maps a job to the trace it replays (must outlive the sweep). */
using TraceProvider =
    std::function<const trace::Trace &(const ReplayJob &)>;

/** Runs grids of ReplayJobs on a ThreadPool. */
class SweepEngine
{
  public:
    /** Engine whose jobs fetch traces through @p provider. */
    SweepEngine(ThreadPool &pool, TraceProvider provider);

    /** Engine used only via replayTrace() (no trace provider). */
    explicit SweepEngine(ThreadPool &pool);

    /**
     * Run every job, fetching traces through the provider; result i
     * corresponds to jobs[i]. Requires a provider.
     */
    std::vector<ReplayResult> run(const std::vector<ReplayJob> &jobs);

    /**
     * Replay one job over an already-fetched trace. With shards > 1
     * (job.shards, else @p default_shards; capped at records / 64k
     * + 1), the chunks apply block-sharded across the pool.
     */
    ReplayResult replayTrace(const trace::Trace &t, const ReplayJob &job,
                             unsigned default_shards = 1);

    ThreadPool &pool() { return pool_; }

  private:
    ThreadPool &pool_;
    TraceProvider provider_;
};

} // namespace cosmos::replay

#endif // COSMOS_REPLAY_SWEEP_HH
