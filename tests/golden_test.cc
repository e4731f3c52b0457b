/**
 * @file
 * Golden regression suite: replays the Table 5 / Table 6 grid and
 * requires every accuracy counter to equal the pinned values in
 * fixtures/golden_accuracy.hh, cell by cell and bit for bit.
 *
 * The fixture was captured from the seed implementation before the
 * predictor's data layout was flattened (packed MHRs, open-addressing
 * tables, arena backing), so this suite is the proof that those are
 * pure performance changes. It intentionally checks raw integer
 * counters, not percentages: a drift of one reference is a bug even
 * when every rounded table entry still matches the paper.
 *
 * A drifting cell prints its measured row in fixture syntax, ready
 * to paste into the fixture when the model changes on purpose.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "cosmos/predictor_bank.hh"
#include "fixtures/golden_accuracy.hh"
#include "harness/sweep.hh"
#include "harness/trace_cache.hh"

namespace cosmos
{
namespace
{

/** @p acc as a fixtures::golden_accuracy_rows initializer line. */
std::string
fixtureRow(const fixtures::GoldenAccuracyRow &row,
           const pred::AccuracyTracker &acc)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"%s\", %u, %u, %lluu, %lluu, %lluu, %lluu, %lluu},",
                  row.app, row.depth, row.filterMax,
                  (unsigned long long)acc.cacheSide().hits,
                  (unsigned long long)acc.cacheSide().total,
                  (unsigned long long)acc.directorySide().hits,
                  (unsigned long long)acc.directorySide().total,
                  (unsigned long long)acc.coldMisses());
    return buf;
}

/** Every counter of @p acc equals @p row's; else the measured row. */
void
expectGolden(const fixtures::GoldenAccuracyRow &row,
             const pred::AccuracyTracker &acc, const std::string &path)
{
    const bool same = acc.cacheSide().hits == row.cacheHits &&
                      acc.cacheSide().total == row.cacheTotal &&
                      acc.directorySide().hits == row.dirHits &&
                      acc.directorySide().total == row.dirTotal &&
                      acc.coldMisses() == row.coldMisses;
    EXPECT_TRUE(same) << path << " drifted; measured row:\n    "
                      << fixtureRow(row, acc);
}

TEST(GoldenAccuracy, SerialReplayMatchesFixtureBitForBit)
{
    for (const auto &row : fixtures::golden_accuracy_rows) {
        const auto &trace = harness::cachedTrace(row.app);
        pred::PredictorBank bank(
            trace.numNodes,
            pred::CosmosConfig{row.depth, row.filterMax});
        bank.replay(trace);
        expectGolden(row, bank.accuracy(), "serial replay");
    }
}

TEST(GoldenAccuracy, ParallelSweepMatchesFixtureBitForBit)
{
    // The same grid through the SweepEngine, twice: with the shard
    // count left to the engine, and with four shards per cell. Every
    // default trace holds 150k-734k records, so at four shards each
    // cell really splits (3-4 shards) and runs the chunked
    // ShardedPredictorBank path.
    for (const unsigned shards : {0u, 4u}) {
        std::vector<replay::ReplayJob> jobs;
        for (const auto &row : fixtures::golden_accuracy_rows)
            jobs.push_back(
                {.app = row.app,
                 .config = pred::CosmosConfig{row.depth, row.filterMax},
                 .shards = shards});
        const auto results = harness::runSweep(jobs);
        ASSERT_EQ(results.size(), fixtures::num_golden_accuracy_rows);
        for (std::size_t i = 0; i < results.size(); ++i)
            expectGolden(fixtures::golden_accuracy_rows[i],
                         results[i].accuracy,
                         "sweep with shards=" + std::to_string(shards));
    }
}

TEST(GoldenAccuracy, FixtureCoversTheFullGrid)
{
    // 5 applications x (4 unfiltered depths + 2 depths x 2 filters).
    EXPECT_EQ(fixtures::num_golden_accuracy_rows, 40u);
}

} // namespace
} // namespace cosmos
