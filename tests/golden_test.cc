/**
 * @file
 * Golden regression suite: replays the Table 5 / Table 6 grid and
 * requires every accuracy counter to equal the pinned values in
 * fixtures/golden_accuracy.hh, cell by cell and bit for bit. The
 * GoldenSim cases pin the simulator underneath the same way
 * (fixtures/golden_sim.hh): trace digests, event counts and
 * simulated times of the kernels, plain and accelerated, one
 * evicting forge run, the delivered total of CI's fuzz campaign and
 * a digest of its planted-bug campaign's reports.
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

#include "check/fuzzer.hh"
#include "cosmos/predictor_bank.hh"
#include "fixtures/golden_accuracy.hh"
#include "fixtures/golden_sim.hh"
#include "forge/synth.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "harness/trace_cache.hh"
#include "harness/traffic.hh"

namespace cosmos
{

namespace fixtures
{
/** Name a GoldenSim case's parameter by its kernel in gtest output. */
void
PrintTo(const GoldenKernelRun &r, std::ostream *os)
{
    *os << r.app;
}
} // namespace fixtures

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

/** FNV-1a folding whole 64-bit words (and, for text, single bytes). */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    mix(std::uint64_t v)
    {
        h ^= v;
        h *= 0x100000001b3ULL;
    }

    /** The length, then every byte, so adjacent strings cannot
     *  trade characters. */
    void
    mix(const std::string &s)
    {
        mix(s.size());
        for (const char c : s)
            mix(static_cast<unsigned char>(c));
    }
};

/** FNV-1a over the 64-bit words of every record -- the trace digest
 *  perfbench prints, so the two can be compared by eye. */
std::uint64_t
traceDigest(const trace::Trace &t)
{
    Fnv1a f;
    for (const trace::TraceRecord &r : t.records) {
        f.mix(r.block);
        f.mix(r.when);
        f.mix(r.receiver);
        f.mix(r.sender);
        f.mix(static_cast<std::uint64_t>(r.type));
        f.mix(static_cast<std::uint64_t>(r.role));
        f.mix(static_cast<std::uint32_t>(r.iteration));
    }
    return f.h;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llxu", (unsigned long long)v);
    return buf;
}

/** @p r as a fixtures::golden_kernel_runs initializer line. */
std::string
fixtureRow(const fixtures::GoldenKernelRun &r)
{
    std::string s = std::string("{\"") + r.app + "\", " + hex(r.digest);
    for (const std::uint64_t v :
         {r.events, r.finalTime, r.accelFinalTime, r.rmwQueries,
          r.rmwGrants, r.recallTriggers, r.recallsStarted,
          r.gatedByConfidence, r.fwdQueries, r.fwdGranted}) {
        s += ", " + std::to_string(v) + "u";
    }
    return s + "},";
}

class GoldenSim
    : public ::testing::TestWithParam<fixtures::GoldenKernelRun>
{
};

TEST_P(GoldenSim, PlainAndAcceleratedRunsMatchFixture)
{
    const fixtures::GoldenKernelRun &want = GetParam();
    // cachedTrace's configuration: the default seed and machine,
    // coherence checks left to the protocol suites.
    harness::RunConfig cfg;
    cfg.app = want.app;
    cfg.checkInvariants = false;
    const harness::RunResult plain = harness::runWorkload(cfg);
    const harness::AcceleratedRunResult fast =
        harness::runAccelerated(cfg, accel::OnlineOptions{});

    const accel::OnlineStats &a = fast.accel;
    const fixtures::GoldenKernelRun got{
        want.app, traceDigest(plain.trace), plain.events, plain.finalTime,
        fast.run.finalTime, a.rmwQueries, a.rmwGrants, a.recallTriggers,
        a.recallsStarted, a.gatedByConfidence, a.fwdQueries, a.fwdGranted};
    EXPECT_EQ(fixtureRow(got), fixtureRow(want))
        << want.app << " drifted; measured row:\n    " << fixtureRow(got);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, GoldenSim, ::testing::ValuesIn(fixtures::golden_kernel_runs),
    [](const ::testing::TestParamInfo<fixtures::GoldenKernelRun> &info) {
        return std::string(info.param.app);
    });

TEST(GoldenSimCapacity, EvictingForgeRunMatchesFixture)
{
    forge::ForgeParams fp;
    std::string err;
    ASSERT_TRUE(
        forge::ForgeParams::parse(fixtures::golden_forge_spec, fp, &err))
        << err;
    harness::TrafficConfig tc;
    tc.machine.cacheCapacityBlocks = fixtures::golden_forge_capacity;
    tc.maxIterations = fixtures::golden_forge_iterations;
    forge::SynthSource source(fp);
    const harness::RunResult run = harness::runTraffic(tc, source);

    ASSERT_GT(run.totals.evictions, 0u) << "the run must evict";
    EXPECT_EQ(traceDigest(run.trace), fixtures::golden_forge_digest)
        << "measured: golden_forge_digest = " << hex(traceDigest(run.trace));
    EXPECT_EQ(run.totals.evictions, fixtures::golden_forge_evictions)
        << "measured: golden_forge_evictions = " << run.totals.evictions
        << "u";
}

TEST(GoldenSimFuzz, CampaignDeliversThePinnedTotal)
{
    check::FuzzOptions opts;
    opts.numSeeds = 200;
    opts.baseSeed = 1;
    std::uint64_t delivered = 0;
    for (unsigned i = 0; i < opts.numSeeds; ++i) {
        const check::CaseResult r =
            check::runCase(check::makeCase(opts.baseSeed + i, opts), opts);
        EXPECT_FALSE(r.failed) << "seed " << r.seed;
        delivered += r.delivered;
    }
    EXPECT_EQ(delivered, fixtures::golden_fuzz_delivered)
        << "measured: golden_fuzz_delivered = " << delivered << "u";
}

TEST(GoldenSimFuzz, PlantedBugCampaignReportsMatchDigest)
{
    // CI's planted-bug stage (`cosmos fuzz --seeds 5 --seed 1
    // --inject-ignore-inval 2`), shrinking on.
    check::FuzzOptions opts;
    opts.numSeeds = 5;
    opts.baseSeed = 1;
    opts.ignoreInvalEvery = 2;
    opts.shrink = true;
    const check::FuzzReport report = check::fuzz(opts);
    ASSERT_FALSE(report.clean()) << "the planted bug must be caught";

    Fnv1a f;
    for (const check::Failure &fail : report.failures) {
        f.mix(fail.result.seed);
        f.mix(fail.result.delivered);
        f.mix(fail.shrunkOps);
        for (const check::Violation &v : fail.result.violations)
            f.mix(v.format());
    }
    EXPECT_EQ(f.h, fixtures::golden_fuzz_planted_digest)
        << "measured: golden_fuzz_planted_digest = " << hex(f.h);
}

} // namespace
} // namespace cosmos
