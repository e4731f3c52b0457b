/**
 * @file
 * Tests of the batched/sharded/streaming replay pipeline.
 *
 * The whole pipeline (cosmos/batch.hh staging, the grouped counting
 * sort, the probe/apply passes, the sharded bank, and the simulator's
 * chunked record sink feeding it) claims one property everywhere:
 * every Table 5/6/8 counter is *bit-identical* to a plain scalar
 * record-order replay. This suite checks that claim against every
 * axis the pipeline can vary -- predictor configuration, batch
 * tunables (including degenerate ones), iteration prefixes, shard
 * counts, chunk sizes -- plus the supporting guarantees: census
 * reservation really prevents rehashes, and the traffic record sink
 * matches materialization.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.hh"
#include "cosmos/predictor_bank.hh"
#include "cosmos/sharded_bank.hh"
#include "cosmos/variants.hh"
#include "forge/synth.hh"
#include "harness/trace_cache.hh"
#include "harness/traffic.hh"
#include "replay/thread_pool.hh"

namespace cosmos
{
namespace
{

using pred::BatchConfig;
using pred::CosmosConfig;
using pred::PredictorBank;
using pred::ShardedPredictorBank;

/** Every counter the paper's tables read, flattened for EXPECT_EQ. */
struct Counters
{
    std::uint64_t cacheHits, cacheTotal, dirHits, dirTotal;
    std::uint64_t coldMisses, cacheArcRefs, dirArcRefs;
    std::uint64_t arcHits; ///< summed over the full (from, to) grid
    std::uint64_t mhrEntries, phtEntries;

    bool operator==(const Counters &) const = default;
};

std::uint64_t
arcGridHits(const pred::ArcStats &a)
{
    std::uint64_t hits = 0;
    for (unsigned f = 0; f < proto::num_msg_types; ++f)
        for (unsigned t = 0; t < proto::num_msg_types; ++t)
            hits += a.arc(static_cast<proto::MsgType>(f),
                          static_cast<proto::MsgType>(t))
                        .hits;
    return hits;
}

Counters
snapshot(const pred::AccuracyTracker &acc,
         const pred::ArcStats &cache_arcs,
         const pred::ArcStats &dir_arcs, const pred::MemoryStats &m)
{
    return {acc.cacheSide().hits,     acc.cacheSide().total,
            acc.directorySide().hits, acc.directorySide().total,
            acc.coldMisses(),         cache_arcs.totalRefs(),
            dir_arcs.totalRefs(),
            arcGridHits(cache_arcs) + arcGridHits(dir_arcs),
            m.mhrEntries,             m.phtEntries};
}

Counters
snapshot(const PredictorBank &bank)
{
    return snapshot(bank.accuracy(), bank.arcs(proto::Role::cache),
                    bank.arcs(proto::Role::directory),
                    bank.memoryStats());
}

Counters
snapshot(const ShardedPredictorBank &bank)
{
    return snapshot(bank.accuracy(), bank.arcs(proto::Role::cache),
                    bank.arcs(proto::Role::directory),
                    bank.memoryStats());
}

Counters
scalarReference(const trace::Trace &t, const CosmosConfig &cfg,
                std::int32_t max_iteration = INT32_MAX)
{
    PredictorBank bank(t.numNodes, cfg);
    bank.replay(t, max_iteration);
    return snapshot(bank);
}

// ------------------------------------------------- batched replay

TEST(BatchedReplay, BitIdenticalAcrossConfigs)
{
    // Depth, filter, and the PHT budget all change what applyCore
    // does per record; none may change under batching.
    const CosmosConfig configs[] = {
        {.depth = 1}, {.depth = 2, .filterMax = 2},
        {.depth = 4}, {.depth = 2, .maxPhtPerBlock = 2}};
    for (const char *app : {"dsmc", "barnes"}) {
        const auto &t = harness::cachedTrace(app);
        for (const auto &cfg : configs) {
            PredictorBank bank(t.numNodes, cfg);
            bank.replayBatched(t);
            EXPECT_EQ(snapshot(bank), scalarReference(t, cfg))
                << app << " depth=" << cfg.depth
                << " filter=" << cfg.filterMax
                << " pht=" << cfg.maxPhtPerBlock;
        }
    }
}

TEST(BatchedReplay, BitIdenticalUnderDegenerateBatchConfigs)
{
    // Tiny windows force many staging flushes, depth 1 makes every
    // sub-batch a single element, groupBits 0 disables grouping, and
    // an absurd groupBits must clamp instead of allocating 2^24
    // buckets per module.
    const auto &t = harness::cachedTrace("dsmc");
    const CosmosConfig cfg{.depth = 2};
    const Counters want = scalarReference(t, cfg);
    const BatchConfig batch_cfgs[] = {
        {.depth = 1, .prefetchDistance = 0, .window = 1,
         .groupBits = 0},
        {.depth = 3, .prefetchDistance = 1, .window = 7,
         .groupBits = 2},
        {.depth = 512, .prefetchDistance = 8, .window = 1u << 18,
         .groupBits = 24},
    };
    for (const auto &bc : batch_cfgs) {
        PredictorBank bank(t.numNodes, cfg);
        bank.replayBatched(t, INT32_MAX, bc);
        EXPECT_EQ(snapshot(bank), want)
            << "batch depth=" << bc.depth << " window=" << bc.window
            << " groupBits=" << bc.groupBits;
    }
}

TEST(BatchedReplay, BitIdenticalOnIterationPrefixes)
{
    const auto &t = harness::cachedTrace("dsmc");
    const CosmosConfig cfg{.depth = 2};
    for (std::int32_t max_iter : {0, 2, 5}) {
        PredictorBank bank(t.numNodes, cfg);
        bank.replayBatched(t, max_iter);
        EXPECT_EQ(snapshot(bank), scalarReference(t, cfg, max_iter))
            << "maxIteration=" << max_iter;
    }
}

TEST(BatchedReplay, NonCosmosBankFallsBackBitIdentically)
{
    // Directed-baseline banks take the scalar path inside
    // replayBatched; the counters still must match plain replay.
    const auto &t = harness::cachedTrace("dsmc");
    const auto factory = [](NodeId, proto::Role) {
        return std::make_unique<pred::LastValuePredictor>();
    };
    PredictorBank scalar(t.numNodes, factory);
    scalar.replay(t);
    PredictorBank batched(t.numNodes, factory);
    batched.replayBatched(t);
    EXPECT_EQ(batched.accuracy().overall().hits,
              scalar.accuracy().overall().hits);
    EXPECT_EQ(batched.accuracy().overall().total,
              scalar.accuracy().overall().total);
    EXPECT_EQ(batched.accuracy().coldMisses(),
              scalar.accuracy().coldMisses());
}

// -------------------------------------------------- sharded bank

TEST(ShardedBank, ShardCountInvariance)
{
    const auto &t = harness::cachedTrace("dsmc");
    const CosmosConfig cfg{.depth = 2};
    const Counters want = scalarReference(t, cfg);

    for (unsigned shards : {1u, 8u}) {
        ShardedPredictorBank bank(t.numNodes, cfg, shards);
        // Feed in bounded chunks, as a stream would.
        constexpr std::size_t chunk = 10'000;
        for (std::size_t i = 0; i < t.records.size(); i += chunk) {
            const std::size_t n =
                std::min(chunk, t.records.size() - i);
            bank.observeChunk(t.records.data() + i, n);
        }
        EXPECT_EQ(snapshot(bank), want) << "shards=" << shards;
    }
}

TEST(ShardedBank, ConcurrentShardApplyMatchesSerial)
{
    const auto &t = harness::cachedTrace("dsmc");
    const CosmosConfig cfg{.depth = 1};
    constexpr unsigned shards = 4;

    ShardedPredictorBank bank(t.numNodes, cfg, shards);
    bank.reserveFromCensus(trace::moduleBlockCensus(t));
    replay::ThreadPool pool(shards);
    constexpr std::size_t chunk = 50'000;
    for (std::size_t i = 0; i < t.records.size(); i += chunk) {
        const std::size_t n = std::min(chunk, t.records.size() - i);
        bank.stageChunk(t.records.data() + i, n);
        pool.parallelFor(shards, [&](std::size_t s) {
            bank.applyShard(static_cast<unsigned>(s));
        });
    }
    EXPECT_EQ(snapshot(bank), scalarReference(t, cfg));
}

// ------------------------------------------------ census reserve

TEST(CensusReserve, NoRehashDuringReplay)
{
    // After reserveFromCensus, a full replay must not grow any block
    // table: the capacity snapshot before equals the one after.
    const auto &t = harness::cachedTrace("dsmc");
    PredictorBank bank(t.numNodes, CosmosConfig{.depth = 2});
    bank.reserveFromCensus(trace::moduleBlockCensus(t));

    std::vector<std::size_t> cap_before;
    for (NodeId n = 0; n < t.numNodes; ++n)
        for (auto role : {proto::Role::cache, proto::Role::directory})
            cap_before.push_back(
                dynamic_cast<const pred::CosmosPredictor &>(
                    bank.predictor(n, role))
                    .tableStats()
                    .blockCapacity);

    bank.replayBatched(t);

    std::size_t i = 0;
    for (NodeId n = 0; n < t.numNodes; ++n)
        for (auto role : {proto::Role::cache, proto::Role::directory})
            EXPECT_EQ(dynamic_cast<const pred::CosmosPredictor &>(
                          bank.predictor(n, role))
                          .tableStats()
                          .blockCapacity,
                      cap_before[i++])
                << "node " << n << " rehashed during replay";
}

TEST(FlatMapReserve, ProbeLengthsStayShortAtHighLoad)
{
    // Fill a reserved table to just under the 7/8 load limit; robin-
    // hood displacement must keep probe chains short (regression
    // guard for the probe/prefetch pipeline, whose prefetch only
    // covers the first slots of a chain).
    FlatMap<std::uint64_t, int> map;
    constexpr std::size_t n = 7000; // reserve -> 8192 slots, ~85% load
    map.reserve(n);
    const std::size_t cap = map.capacity();
    for (std::uint64_t i = 0; i < n; ++i)
        map.insert(i * 0x9E3779B97F4A7C15ull, static_cast<int>(i));
    EXPECT_EQ(map.capacity(), cap) << "reserve did not cover " << n;

    const auto ps = map.probeLengthStats();
    EXPECT_EQ(ps.samples, n);
    EXPECT_LE(ps.mean(), 8.0);
    EXPECT_LE(ps.longest, 64u);
}

// ------------------------------------------------- traffic sink

TEST(TrafficSink, ChunkedSinkMatchesMaterializedTrace)
{
    forge::ForgeParams params;
    params.numProcs = 4;
    params.blocks = 32;
    const int iterations = 6;

    harness::TrafficConfig cfg;
    cfg.machine.numNodes = params.numProcs;
    cfg.maxIterations = iterations;
    cfg.opsPerIteration = 256;

    forge::SynthSource materialized_src(params);
    const auto materialized = runTraffic(cfg, materialized_src);

    std::vector<trace::TraceRecord> sunk;
    cfg.recordSink = [&](const std::vector<trace::TraceRecord> &recs) {
        sunk.insert(sunk.end(), recs.begin(), recs.end());
    };
    forge::SynthSource streamed_src(params);
    const auto streamed = runTraffic(cfg, streamed_src);

    EXPECT_TRUE(streamed.trace.records.empty())
        << "sink must drain the trace";
    EXPECT_EQ(sunk, materialized.trace.records);
    EXPECT_EQ(streamed.trace.iterations,
              materialized.trace.iterations);
}

TEST(TrafficSink, ShardedStreamMatchesBatchedReplay)
{
    // The production streaming path: the simulator hands each
    // chunk's records to a sink that feeds a 4-shard bank, and no
    // trace is ever materialised. It must equal a batched replay of
    // the materialised trace, and a few hundred rounds of recurring
    // sharing on the real protocol must be learnable.
    forge::ForgeParams params;
    params.numProcs = 8;
    params.blocks = 64;

    harness::TrafficConfig cfg;
    cfg.machine.numNodes = params.numProcs;
    cfg.maxIterations = 48;
    cfg.opsPerIteration = 2048;
    const CosmosConfig pc{.depth = 1};

    forge::SynthSource materialized_src(params);
    const auto materialized = runTraffic(cfg, materialized_src);
    PredictorBank batched(materialized.trace.numNodes, pc);
    batched.replayBatched(materialized.trace);

    ShardedPredictorBank sharded(params.numProcs, pc, 4);
    std::uint64_t streamed = 0;
    cfg.recordSink = [&](const std::vector<trace::TraceRecord> &recs) {
        sharded.observeChunk(recs.data(), recs.size());
        streamed += recs.size();
    };
    forge::SynthSource streamed_src(params);
    runTraffic(cfg, streamed_src);

    EXPECT_EQ(streamed, materialized.trace.records.size());
    EXPECT_EQ(snapshot(sharded), snapshot(batched));
    EXPECT_GT(sharded.accuracy().overall().percent(), 50.0);
}

} // namespace
} // namespace cosmos
