#include "replay/sweep.hh"

#include <algorithm>

#include "common/log.hh"
#include "cosmos/predictor_bank.hh"
#include "cosmos/sharded_bank.hh"
#include "obs/trace_event.hh"

namespace cosmos::replay
{

namespace
{

/** Records staged per chunk of a sharded replay: the staging buffers
 *  hold one chunk while the shard banks persist across chunks. */
constexpr std::size_t chunk_records = std::size_t{1} << 16;

/** A finished bank's statistics (a ShardedPredictorBank folds its
 *  shards in index order). */
template <class Bank>
ReplayResult
extract(const Bank &bank)
{
    ReplayResult r;
    r.accuracy = bank.accuracy();
    r.cacheArcs = bank.arcs(proto::Role::cache);
    r.directoryArcs = bank.arcs(proto::Role::directory);
    r.memory = bank.memoryStats();
    return r;
}

} // namespace

SweepEngine::SweepEngine(ThreadPool &pool, TraceProvider provider)
    : pool_(pool), provider_(std::move(provider))
{
}

SweepEngine::SweepEngine(ThreadPool &pool) : pool_(pool) {}

std::vector<ReplayResult>
SweepEngine::run(const std::vector<ReplayJob> &jobs)
{
    cosmos_assert(provider_,
                  "SweepEngine::run requires a trace provider");
    // When jobs already saturate the workers, shard-splitting each
    // one only adds bank setup cost; shard within jobs when cells
    // are scarcer than threads.
    const unsigned default_shards =
        jobs.size() >= pool_.size()
            ? 1
            : static_cast<unsigned>(
                  (pool_.size() + jobs.size() - 1) / jobs.size());

    std::vector<ReplayResult> results(jobs.size());
    pool_.parallelFor(jobs.size(), [&](std::size_t i) {
        const obs::Span span("replay.cell", "job", i);
        const trace::Trace &t = provider_(jobs[i]);
        results[i] = replayTrace(t, jobs[i], default_shards);
    });
    return results;
}

ReplayResult
SweepEngine::replayTrace(const trace::Trace &t, const ReplayJob &job,
                         unsigned default_shards)
{
    unsigned shards = job.shards != 0 ? job.shards : default_shards;
    shards = std::max(shards, 1u);
    // A shard per ~64k records is the break-even floor; below that,
    // bank construction dominates.
    const unsigned useful = static_cast<unsigned>(
        t.records.size() / 65536 + 1);
    shards = std::min(shards, useful);

    if (shards == 1) {
        const obs::Span span("replay.shard", "records",
                             t.records.size());
        pred::PredictorBank bank(t.numNodes, job.config);
        bank.reserveFromCensus(trace::moduleBlockCensus(t));
        bank.replayBatched(t, job.maxIteration);
        return extract(bank);
    }

    // Stage each chunk by block shard, then apply the shards
    // concurrently. Shard banks keep their state across chunks, so
    // every block still sees its records in trace order.
    pred::ShardedPredictorBank bank(t.numNodes, job.config, shards);
    bank.reserveFromCensus(trace::moduleBlockCensus(t));
    const std::size_t n = t.records.size();
    for (std::size_t i = 0; i < n; i += chunk_records) {
        bank.stageChunk(t.records.data() + i,
                        std::min(chunk_records, n - i));
        pool_.parallelFor(shards, [&](std::size_t i_shard) {
            const auto s = static_cast<unsigned>(i_shard);
            const obs::Span span("replay.shard", "index", s, "records",
                                 bank.stagedRecords(s));
            bank.applyShard(s, job.maxIteration);
        });
    }
    return extract(bank);
}

} // namespace cosmos::replay
