/**
 * @file
 * Unit tests of the traffic forge: synthetic-stream determinism,
 * text-trace round-tripping (file, directory, and gzip layouts),
 * malformed-input diagnostics, and ground-truth scoring against the
 * sharing-pattern census.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "forge/score.hh"
#include "forge/synth.hh"
#include "forge/text_trace.hh"
#include "harness/traffic.hh"

namespace cosmos::forge
{
namespace
{

ForgeParams
smallParams()
{
    ForgeParams p;
    p.numProcs = 4;
    p.blocks = 16;
    p.migratory = 0.3;
    p.falseSharing = 0.1;
    p.privateFrac = 0.2;
    p.readOnly = 0.2;
    return p;
}

std::vector<Access>
pull(TrafficSource &src, std::size_t total, std::size_t chunk)
{
    std::vector<Access> all, buf;
    while (all.size() < total) {
        const std::size_t got =
            src.next(buf, std::min(chunk, total - all.size()));
        if (got == 0)
            break;
        all.insert(all.end(), buf.begin(), buf.end());
    }
    return all;
}

std::string
tempDir(const std::string &leaf)
{
    const std::string dir = ::testing::TempDir() + "/" + leaf;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

TEST(Synth, StreamIsDeterministicAcrossChunkSizes)
{
    // The stream is a pure function of (seed, params): the consumer's
    // chunking must not be observable.
    SynthSource a(smallParams());
    SynthSource b(smallParams());
    const auto coarse = pull(a, 6000, 1000);
    const auto fine = pull(b, 6000, 17);
    ASSERT_EQ(coarse.size(), 6000u);
    EXPECT_EQ(coarse, fine);
}

TEST(Synth, SeedSelectsTheStream)
{
    ForgeParams p = smallParams();
    SynthSource a(p);
    p.seed ^= 1;
    SynthSource c(p);
    EXPECT_NE(pull(a, 2000, 256), pull(c, 2000, 256));
}

TEST(Synth, GroundTruthLabelsCoverEveryBlock)
{
    const ForgeParams p = smallParams();
    SynthSource src(p);
    ASSERT_EQ(src.labels().size(), p.blocks);
    unsigned counts[num_block_classes] = {};
    for (unsigned i = 0; i < p.blocks; ++i) {
        EXPECT_EQ(src.label(i), src.labels()[i]);
        EXPECT_EQ(src.labelOfAddr(src.blockAddr(i)), src.label(i));
        ++counts[static_cast<unsigned>(src.label(i))];
    }
    // Every class got a share of this mix.
    for (unsigned c = 0; c < num_block_classes; ++c)
        EXPECT_GT(counts[c], 0u) << toString(BlockClass(c));
    // Every emitted address maps back to a labeled block.
    SynthSource probe(p);
    for (const Access &acc : pull(probe, 1000, 128)) {
        EXPECT_LT(acc.proc, p.numProcs);
        probe.labelOfAddr(acc.addr); // panics on a foreign address
    }
}

TEST(TextTrace, RoundTripsByteIdentically)
{
    const std::string dir = tempDir("cosmos_forge_roundtrip");
    const std::string path = dir + "/t.trace";

    SynthSource src(smallParams());
    EXPECT_EQ(writeTextTrace(path, src, 5000), 5000u);

    // Same params again: the file is byte-identical.
    const std::string path2 = dir + "/t2.trace";
    SynthSource src2(smallParams());
    writeTextTrace(path2, src2, 5000);
    std::ifstream f1(path, std::ios::binary), f2(path2,
                                                 std::ios::binary);
    std::stringstream b1, b2;
    b1 << f1.rdbuf();
    b2 << f2.rdbuf();
    EXPECT_EQ(b1.str(), b2.str());

    // And the reader reproduces the generator's stream exactly.
    TextTraceReader reader(path, smallParams().numProcs);
    EXPECT_TRUE(reader.bounded());
    const auto back = pull(reader, 6000, 512);
    SynthSource ref(smallParams());
    EXPECT_EQ(back, pull(ref, 5000, 512));
    EXPECT_FALSE(reader.failed());
    EXPECT_EQ(reader.accessesRead(), 5000u);
    EXPECT_GT(reader.bytesRead(), 0u);
    std::filesystem::remove_all(dir);
}

TEST(TextTrace, MalformedLineReportsFileAndLine)
{
    const std::string dir = tempDir("cosmos_forge_badline");
    const std::string path = dir + "/bad.trace";
    std::ofstream(path) << "# comment\n"
                        << "0 r 0x40\n"
                        << "1 w 0x80\n"
                        << "2 q 0xc0\n";
    TextTraceReader reader(path, 4);
    std::vector<Access> buf;
    std::size_t got = 0;
    while (const std::size_t n = reader.next(buf, 64))
        got += n;
    EXPECT_EQ(got, 2u); // the two good lines before the bad one
    EXPECT_TRUE(reader.failed());
    EXPECT_NE(reader.error().find("bad.trace:4:"), std::string::npos)
        << reader.error();
    std::filesystem::remove_all(dir);
}

TEST(TextTrace, OutOfRangeProcessorIsMalformed)
{
    const std::string dir = tempDir("cosmos_forge_badproc");
    const std::string path = dir + "/p.trace";
    std::ofstream(path) << "7 r 0x40\n";
    TextTraceReader reader(path, 4);
    std::vector<Access> buf;
    EXPECT_EQ(reader.next(buf, 64), 0u);
    EXPECT_TRUE(reader.failed());
    EXPECT_NE(reader.error().find("processor"), std::string::npos)
        << reader.error();
    std::filesystem::remove_all(dir);
}

TEST(TextTrace, DirectoryLayoutIngestsFilesInNameOrder)
{
    const std::string dir = tempDir("cosmos_forge_dir");
    std::ofstream(dir + "/b.trace") << "1 w 0x80\n";
    std::ofstream(dir + "/a.trace") << "0 r 0x40\n";
    TextTraceReader reader(dir, 4);
    const auto all = pull(reader, 10, 8);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0], (Access{0, false, 0x40}));
    EXPECT_EQ(all[1], (Access{1, true, 0x80}));
    std::filesystem::remove_all(dir);
}

TEST(TextTrace, StemSuffixSuppliesTheProcessorColumn)
{
    const std::string dir = tempDir("cosmos_forge_stem");
    // `app_2.data`: two-field lines default to processor 2.
    std::ofstream(dir + "/app_2.data") << "r 0x40\nw 0x80\n";
    TextTraceReader reader(dir, 4);
    const auto all = pull(reader, 10, 8);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0], (Access{2, false, 0x40}));
    EXPECT_EQ(all[1], (Access{2, true, 0x80}));
    std::filesystem::remove_all(dir);
}

TEST(TextTrace, GzipRoundTripsWhenSupported)
{
    if (!gzipSupported())
        GTEST_SKIP() << "built without zlib";
    const std::string dir = tempDir("cosmos_forge_gz");
    const std::string path = dir + "/t.trace.gz";
    SynthSource src(smallParams());
    EXPECT_EQ(writeTextTrace(path, src, 3000), 3000u);
    TextTraceReader reader(path, smallParams().numProcs);
    SynthSource ref(smallParams());
    EXPECT_EQ(pull(reader, 4000, 256), pull(ref, 3000, 256));
    EXPECT_FALSE(reader.failed());
    std::filesystem::remove_all(dir);
}

TEST(ForgeParams, ParsesSpecsAndRejectsGarbage)
{
    ForgeParams p;
    std::string err;
    ASSERT_TRUE(ForgeParams::parse(
        "migratory=0.4,false=0.05,private=0.1,readonly=0.1,"
        "fanout=5,phase=3,blocks=128,procs=8,seed=0x2a",
        p, &err))
        << err;
    EXPECT_DOUBLE_EQ(p.migratory, 0.4);
    EXPECT_DOUBLE_EQ(p.falseSharing, 0.05);
    EXPECT_EQ(p.fanout, 5u);
    EXPECT_EQ(p.phase, 3u);
    EXPECT_EQ(p.blocks, 128u);
    EXPECT_EQ(p.numProcs, 8);
    EXPECT_EQ(p.seed, 0x2aull);
    EXPECT_DOUBLE_EQ(p.producerConsumer(), 1.0 - 0.4 - 0.05 - 0.2);

    EXPECT_FALSE(ForgeParams::parse("bogus=1", p, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(ForgeParams::parse("migratory=oops", p, &err));
    EXPECT_FALSE(ForgeParams::parse("migratory", p, &err));
}

TEST(Score, CensusAgreesWithGroundTruthOnStaticRoles)
{
    // With static role assignment (phase=0) every class the census
    // can see must classify as its expected pattern: a census with a
    // known answer (satellite of the paper's §6.1 conjecture).
    // The canonical mix (bench_forge's static cell): enough rounds
    // that every shared block crosses the census message threshold.
    ForgeParams p;
    p.numProcs = 8;
    p.blocks = 64;
    p.migratory = 0.3;
    p.falseSharing = 0.1;
    p.privateFrac = 0.2;
    p.readOnly = 0.2;
    SynthSource src(p);

    harness::TrafficConfig cfg;
    cfg.machine.numNodes = p.numProcs;
    cfg.machine.blockBytes = p.blockBytes;
    cfg.machine.pageBytes = p.pageBytes;
    cfg.opsPerIteration = 2048;
    cfg.maxIterations = 32;
    const auto result = harness::runTraffic(cfg, src);
    ASSERT_FALSE(result.trace.records.empty());

    const ForgeScore score =
        scoreByClass(result.trace, src, pred::CosmosConfig{2, 0});
    std::uint64_t records = 0, blocks = 0, counted = 0;
    for (const ClassScore &c : score.classes) {
        EXPECT_EQ(c.censusAgree, c.censusSeen)
            << toString(c.cls) << " blocks misclassified";
        records += c.records;
        blocks += c.blocks;
        counted += c.accuracy.overall().total;
    }
    // The class slices partition the whole trace and block space,
    // and the merged total equals the per-class counts exactly.
    EXPECT_EQ(records, result.trace.records.size());
    EXPECT_EQ(blocks, p.blocks);
    EXPECT_EQ(score.total.overall().total, counted);
    EXPECT_LE(counted, records); // not every record is a lookup
    // Prediction state is per block, so the per-class slices sum to
    // one serial replay of the whole trace.
    pred::PredictorBank serial(result.trace.numNodes,
                               pred::CosmosConfig{2, 0});
    serial.replay(result.trace);
    const auto &want = serial.accuracy();
    EXPECT_EQ(score.total.cacheSide().hits, want.cacheSide().hits);
    EXPECT_EQ(score.total.cacheSide().total, want.cacheSide().total);
    EXPECT_EQ(score.total.directorySide().hits,
              want.directorySide().hits);
    EXPECT_EQ(score.total.directorySide().total,
              want.directorySide().total);
    EXPECT_EQ(score.total.coldMisses(), want.coldMisses());
    // Heavily-shared classes must actually be predictable.
    const auto &mig = score.classes[static_cast<unsigned>(
        BlockClass::migratory)];
    EXPECT_GT(mig.accuracy.overall().percent(), 50.0);
}

TEST(Traffic, RunIsDeterministicForFixedParams)
{
    ForgeParams p = smallParams();
    harness::TrafficConfig cfg;
    cfg.machine.numNodes = p.numProcs;
    cfg.machine.blockBytes = p.blockBytes;
    cfg.machine.pageBytes = p.pageBytes;
    cfg.opsPerIteration = 512;
    cfg.maxIterations = 8;
    SynthSource a(p);
    SynthSource b(p);
    const auto r1 = harness::runTraffic(cfg, a);
    const auto r2 = harness::runTraffic(cfg, b);
    EXPECT_EQ(r1.trace.records, r2.trace.records);
    EXPECT_EQ(r1.finalTime, r2.finalTime);
}

} // namespace
} // namespace cosmos::forge
