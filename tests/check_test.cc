/**
 * @file
 * Tests of the invariant engine and schedule fuzzer (src/check).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "check/fuzzer.hh"
#include "check/invariant_engine.hh"
#include "common/log.hh"
#include "proto/machine.hh"
#include "runtime/processor.hh"
#include "runtime/program.hh"

namespace cosmos
{
namespace
{

MachineConfig
smallConfig(NodeId nodes = 4)
{
    MachineConfig cfg;
    cfg.numNodes = nodes;
    return cfg;
}

// ---------------------------------------------------------------------
// Recoverable failure path (common/log FailureTrap)

TEST(FailureTrap, AssertThrowsRecoverableErrorWhenTrapped)
{
    bool caught = false;
    try {
        FailureTrap trap;
        cosmos_assert(1 + 1 == 3, "math broke");
    } catch (const RecoverableError &e) {
        caught = true;
        EXPECT_NE(std::string(e.what()).find("math broke"),
                  std::string::npos);
        EXPECT_NE(std::string(e.file()).find("check_test"),
                  std::string::npos);
        EXPECT_GT(e.line(), 0);
    }
    EXPECT_TRUE(caught);
    EXPECT_FALSE(failuresAreRecoverable());
}

TEST(FailureTrap, NestsAndUnwinds)
{
    EXPECT_FALSE(failuresAreRecoverable());
    {
        FailureTrap outer;
        EXPECT_TRUE(failuresAreRecoverable());
        {
            FailureTrap inner;
            EXPECT_TRUE(failuresAreRecoverable());
        }
        EXPECT_TRUE(failuresAreRecoverable());
    }
    EXPECT_FALSE(failuresAreRecoverable());
}

TEST(FailureTrapDeathTest, UntrappedAssertStillAborts)
{
    EXPECT_DEATH(
        { cosmos_assert(false, "untrapped"); }, "untrapped");
}

// The assert condition must be evaluated exactly once whether or not
// it holds (Release-parity audit: no side-effecting double evaluation).
TEST(FailureTrap, ConditionEvaluatedExactlyOnce)
{
    int evaluations = 0;
    cosmos_assert(++evaluations == 1, "side effect");
    EXPECT_EQ(evaluations, 1);

    try {
        FailureTrap trap;
        cosmos_assert(++evaluations == 100, "fails once");
    } catch (const RecoverableError &) {
    }
    EXPECT_EQ(evaluations, 2);
}

// ---------------------------------------------------------------------
// Violation records

TEST(Violation, FormatCarriesContext)
{
    check::Violation v;
    v.kind = check::ViolationKind::writer_and_readers;
    v.block = 0x1040;
    v.nodes = {1, 3};
    v.when = 777;
    v.detail = "writer node 1 coexists with 1 read_only copy";
    v.history = {"t=770 get_rw_response 0->1 block=0x1040"};

    const std::string s = v.format();
    EXPECT_NE(s.find("writer_and_readers"), std::string::npos);
    EXPECT_NE(s.find("block 0x1040"), std::string::npos);
    EXPECT_NE(s.find("nodes [1, 3]"), std::string::npos);
    EXPECT_NE(s.find("t=777"), std::string::npos);
    EXPECT_NE(s.find("last 1 messages"), std::string::npos);
}

TEST(Violation, KindNamesRoundTrip)
{
    EXPECT_STREQ(check::toString(
                     check::ViolationKind::multiple_writers),
                 "multiple_writers");
    EXPECT_STREQ(check::toString(check::ViolationKind::assertion),
                 "assertion");
}

// ---------------------------------------------------------------------
// Invariant engine on a healthy machine

TEST(InvariantEngine, CleanOnHealthyContendedRun)
{
    proto::Machine machine(smallConfig());
    check::InvariantEngine engine(machine);
    runtime::Runtime rt(machine);

    // Four nodes hammering two blocks: reads, writes, upgrades,
    // invalidations -- every protocol flow, no faults.
    runtime::ProgramBuilder b(4);
    const Addr a0 = 0;
    const Addr a1 = 4096;
    for (NodeId p = 0; p < 4; ++p) {
        for (int i = 0; i < 8; ++i)
            b.proc(p).read(a0).write(a1).write(a0).read(a1);
    }
    rt.runPrograms(b.take());
    engine.checkQuiescent();

    EXPECT_TRUE(engine.clean())
        << engine.violations().front().format();
    EXPECT_GT(engine.delivered(), 0u);
    EXPECT_EQ(engine.suppressed(), 0u);
}

// ---------------------------------------------------------------------
// Invariant engine catches a planted protocol bug

/** The violations of a 3-node machine on which every inval_ro ack
 *  is a lie: node 1 takes a read-only copy of block 0; node 2 then
 *  writes it. The directory invalidates node 1's copy, node 1 acks
 *  without invalidating, and exclusivity is granted while the stale
 *  read-only copy survives, so SWMR must fire at that delivery. */
std::vector<check::Violation>
lostInvalidationViolations(unsigned historyDepth)
{
    MachineConfig cfg = smallConfig(3);
    cfg.fault.ignoreInvalEvery = 1;
    proto::Machine machine(cfg);
    check::CheckOptions opts;
    opts.historyDepth = historyDepth;
    check::InvariantEngine engine(machine, opts);
    runtime::Runtime rt(machine);

    runtime::ProgramBuilder b(3);
    b.proc(1).read(0);
    b.barrier();
    b.proc(2).write(0);
    rt.runPrograms(b.take());
    engine.checkQuiescent();
    return engine.violations();
}

TEST(InvariantEngine, CatchesLostInvalidation)
{
    const auto violations =
        lostInvalidationViolations(check::CheckOptions{}.historyDepth);
    ASSERT_FALSE(violations.empty());
    const check::Violation &v = violations.front();
    EXPECT_EQ(v.kind, check::ViolationKind::writer_and_readers);
    EXPECT_EQ(v.block, 0u);
    ASSERT_EQ(v.nodes.size(), 2u);
    EXPECT_EQ(v.nodes[0], 1);
    EXPECT_EQ(v.nodes[1], 2);
    EXPECT_FALSE(v.history.empty());
    EXPECT_GT(v.when, 0u);
}

/** The first violation's history in that scenario at @p depth. */
std::vector<std::string>
lostInvalidationHistory(unsigned depth)
{
    const auto violations = lostInvalidationViolations(depth);
    EXPECT_FALSE(violations.empty());
    return violations.empty() ? std::vector<std::string>{}
                              : violations.front().history;
}

TEST(InvariantEngine, HistoryKeepsTheLastDeliveriesOldestFirst)
{
    // More deliveries precede the violation than a 3-deep history
    // keeps, so its ring has wrapped by then.
    const std::vector<std::string> all = lostInvalidationHistory(64);
    ASSERT_GT(all.size(), 3u);

    const std::vector<std::string> want = {
        "t=1210 inval_ro_request 0->1 block=0x0 for=2",
        "t=1370 inval_ro_response 1->0 block=0x0",
        "t=1675 get_rw_response 0->2 block=0x0 for=2",
    };
    EXPECT_EQ(lostInvalidationHistory(3), want);
    EXPECT_EQ(std::vector<std::string>(all.end() - 3, all.end()), want);
    EXPECT_TRUE(lostInvalidationHistory(0).empty());
}

/** The quiescent sweep's violations on a 3-node machine restored so
 *  that node 1 holds block 0 in state @p line and block 0's home entry
 *  is @p home. */
std::vector<check::Violation>
sweepRestored(proto::LineState line, const proto::DirEntry &home,
              unsigned cacheCapacityBlocks = 0)
{
    MachineConfig cfg = smallConfig(3);
    cfg.cacheCapacityBlocks = cacheCapacityBlocks;
    proto::Machine machine(cfg);
    machine.cache(1).restoreLine(0, line);
    machine.directory(machine.addrMap().home(0)).restoreEntry(0, home);

    check::InvariantEngine engine(machine);
    engine.checkQuiescent();
    return engine.violations();
}

/** Nodes named by the quiescent sweep of a 3-node machine where node 1
 *  holds block 0 read_only while its home lists only node 2. */
std::vector<NodeId>
unlistedHolderCulprits(unsigned cacheCapacityBlocks)
{
    proto::DirEntry e;
    e.state = proto::DirState::shared;
    e.sharers = std::uint64_t{1} << 2;
    const std::vector<check::Violation> violations =
        sweepRestored(proto::LineState::read_only, e, cacheCapacityBlocks);
    EXPECT_EQ(violations.size(), 1u);
    if (violations.empty())
        return {};
    EXPECT_EQ(violations.front().kind,
              check::ViolationKind::directory_mismatch);
    return violations.front().nodes;
}

TEST(InvariantEngine, ReplacementMismatchNamesOnlyUnlistedHolders)
{
    // Silent drops make node 2's stale sharer bit legal under
    // replacement: only node 1, which the home does not list, is at
    // fault. Without replacement the list must be exact, so both are.
    EXPECT_EQ(unlistedHolderCulprits(4), std::vector<NodeId>{1});
    EXPECT_EQ(unlistedHolderCulprits(0), (std::vector<NodeId>{1, 2}));
}

TEST(InvariantEngine, OwnerlessExclusiveEntryNamesOnlyTheHolder)
{
    // Node 1 holds block 0 read_write while its home says exclusive
    // with no owner. The holder is the only culprit: an owner no node
    // mask can hold must not add a phantom node to the report.
    proto::DirEntry e;
    e.state = proto::DirState::exclusive;
    const std::vector<check::Violation> violations =
        sweepRestored(proto::LineState::read_write, e);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations.front().kind,
              check::ViolationKind::directory_mismatch);
    EXPECT_EQ(violations.front().nodes, std::vector<NodeId>{1});
}

TEST(InvariantEngine, NoteFailureRecordsAssertion)
{
    proto::Machine machine(smallConfig());
    check::InvariantEngine engine(machine);
    try {
        FailureTrap trap;
        cosmos_panic("deliberate panic for the engine");
    } catch (const RecoverableError &e) {
        engine.noteFailure(e);
    }
    ASSERT_EQ(engine.violations().size(), 1u);
    EXPECT_EQ(engine.violations().front().kind,
              check::ViolationKind::assertion);
    EXPECT_NE(engine.violations().front().detail.find(
                  "deliberate panic"),
              std::string::npos);
}

TEST(InvariantEngine, MaxViolationsCapsAndCountsSuppressed)
{
    check::CheckOptions opts;
    opts.maxViolations = 2;
    proto::Machine machine(smallConfig());
    check::InvariantEngine engine(machine, opts);
    for (int i = 0; i < 5; ++i) {
        try {
            FailureTrap trap;
            cosmos_panic("panic ", i);
        } catch (const RecoverableError &e) {
            engine.noteFailure(e);
        }
    }
    EXPECT_EQ(engine.violations().size(), 2u);
    EXPECT_EQ(engine.suppressed(), 3u);
}

// ---------------------------------------------------------------------
// Schedule fuzzer

TEST(Fuzzer, CaseDerivationIsDeterministic)
{
    check::FuzzOptions opts;
    const check::FuzzCase a = check::makeCase(42, opts);
    const check::FuzzCase b = check::makeCase(42, opts);
    ASSERT_EQ(a.programs.size(), b.programs.size());
    for (std::size_t p = 0; p < a.programs.size(); ++p) {
        ASSERT_EQ(a.programs[p].size(), b.programs[p].size());
        for (std::size_t i = 0; i < a.programs[p].size(); ++i) {
            EXPECT_EQ(a.programs[p][i].kind, b.programs[p][i].kind);
            EXPECT_EQ(a.programs[p][i].addr, b.programs[p][i].addr);
            EXPECT_EQ(a.programs[p][i].delay, b.programs[p][i].delay);
        }
    }
    EXPECT_EQ(a.cfg.forwarding, b.cfg.forwarding);
    EXPECT_EQ(a.cfg.ownerReadPolicy, b.cfg.ownerReadPolicy);

    // Different seeds give different workloads.
    const check::FuzzCase c = check::makeCase(43, opts);
    EXPECT_NE(a.totalOps(), 0u);
    bool differs =
        check::formatPrograms(a.programs) !=
            check::formatPrograms(c.programs) ||
        a.cfg.forwarding != c.cfg.forwarding;
    EXPECT_TRUE(differs);
}

TEST(Fuzzer, RunIsDeterministic)
{
    check::FuzzOptions opts;
    opts.opsPerNode = 32;
    const check::FuzzCase c = check::makeCase(7, opts);
    const check::CaseResult r1 = check::runCase(c, opts);
    const check::CaseResult r2 = check::runCase(c, opts);
    EXPECT_EQ(r1.failed, r2.failed);
    EXPECT_EQ(r1.delivered, r2.delivered);
    EXPECT_EQ(r1.violations.size(), r2.violations.size());
}

TEST(Fuzzer, CleanCampaignOnHealthyProtocol)
{
    check::FuzzOptions opts;
    opts.numSeeds = 20;
    opts.opsPerNode = 32;
    const check::FuzzReport report = check::fuzz(opts);
    EXPECT_EQ(report.casesRun, 20u);
    EXPECT_TRUE(report.clean())
        << report.failures.front().result.violations.front().format();
}

TEST(Fuzzer, CatchesInjectedBugAndShrinks)
{
    check::FuzzOptions opts;
    opts.numSeeds = 4;
    opts.opsPerNode = 48;
    opts.ignoreInvalEvery = 2;
    const check::FuzzReport report = check::fuzz(opts);
    ASSERT_FALSE(report.clean());

    const check::Failure &f = report.failures.front();
    EXPECT_TRUE(f.result.failed);
    EXPECT_FALSE(f.result.violations.empty());
    // The shrunk reproducer is no bigger than the original and still
    // non-trivial (losing an invalidation needs a reader + a writer).
    EXPECT_LE(f.shrunkOps, f.originalOps);
    EXPECT_GE(f.shrunkOps, 2u);
    EXPECT_FALSE(f.reproducer.empty());

    // The captured seed replays to the same failure.
    const check::Failure again =
        check::replaySeed(f.result.seed, opts);
    EXPECT_TRUE(again.result.failed);
    EXPECT_EQ(again.result.violations.size(),
              f.result.violations.size());
    EXPECT_EQ(again.shrunkOps, f.shrunkOps);
}

TEST(Fuzzer, ReplayOfCleanSeedIsClean)
{
    check::FuzzOptions opts;
    opts.opsPerNode = 32;
    const check::Failure f = check::replaySeed(11, opts);
    EXPECT_FALSE(f.result.failed);
    EXPECT_EQ(f.shrunkOps, f.originalOps);
}

TEST(Fuzzer, WritesWellFormedArtifact)
{
    check::FuzzOptions opts;
    opts.numSeeds = 2;
    opts.opsPerNode = 24;
    opts.ignoreInvalEvery = 1;
    const check::FuzzReport report = check::fuzz(opts);
    ASSERT_FALSE(report.clean());

    const std::string path =
        testing::TempDir() + "/fuzz_artifact.json";
    ASSERT_TRUE(check::writeReport(report, opts, path));

    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    EXPECT_NE(json.find("\"format\": \"cosmos-fuzz-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"clean\": false"), std::string::npos);
    EXPECT_NE(json.find("\"violations\""), std::string::npos);
    EXPECT_NE(json.find("\"reproducer\""), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace cosmos
