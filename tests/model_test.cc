/**
 * @file
 * Tests of the exhaustive protocol model checker (src/model).
 *
 * The golden state/transition counts pinned here are load-bearing:
 * they change only when the protocol's reachable space changes, so a
 * diff in these numbers is a protocol-semantics diff that must be
 * reviewed, not refreshed blindly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "check/fuzzer.hh"
#include "check/violation.hh"
#include "model/explorer.hh"
#include "model/report.hh"
#include "model/state.hh"
#include "model/stepper.hh"
#include "proto/transition_table.hh"

namespace cosmos
{
namespace
{

model::ModelConfig
twoNodes()
{
    model::ModelConfig mc;
    mc.numNodes = 2;
    mc.numBlocks = 1;
    return mc;
}

model::ModelConfig
threeNodes()
{
    model::ModelConfig mc;
    mc.numNodes = 3;
    mc.numBlocks = 1;
    return mc;
}

model::Action
issueRead(NodeId node, std::uint8_t block = 0)
{
    model::Action a;
    a.kind = model::Action::Kind::issue_read;
    a.node = node;
    a.blockIdx = block;
    return a;
}

bool
hasViolation(const model::ExploreResult &res, check::ViolationKind k)
{
    for (const auto &ce : res.counterexamples)
        if (ce.violation.kind == k)
            return true;
    return false;
}

// ---------------------------------------------------------------------
// Stepper basics

TEST(Stepper, InitialStateIsQuiescent)
{
    const model::ModelConfig mc = twoNodes();
    EXPECT_TRUE(model::isQuiescent(model::Stepper::initialState(), mc));
}

TEST(Stepper, IssueLeavesQuiescenceAndIsDeterministic)
{
    const model::ModelConfig mc = threeNodes();
    model::Stepper stepper(mc);

    model::Stepper::Result r1, r2;
    stepper.step(model::Stepper::initialState(), issueRead(1), r1);
    stepper.step(model::Stepper::initialState(), issueRead(1), r2);
    ASSERT_FALSE(r1.failed);
    ASSERT_FALSE(r2.failed);
    EXPECT_FALSE(model::isQuiescent(r1.next, mc));

    std::vector<std::uint8_t> e1, e2;
    model::encodeState(r1.next, mc, e1);
    model::encodeState(r2.next, mc, e2);
    EXPECT_EQ(e1, e2);
    EXPECT_EQ(r1.samples.size(), r2.samples.size());
}

TEST(Stepper, HomeNodeAccessCompletesLocallyInOneStep)
{
    // Node 0 is block 0's home: the request, directory service, and
    // response are all local, so one step runs the whole cascade and
    // lands back in a quiescent state with a read_only copy.
    const model::ModelConfig mc = twoNodes();
    model::Stepper stepper(mc);
    model::Stepper::Result r;
    stepper.step(model::Stepper::initialState(), issueRead(0), r);
    ASSERT_FALSE(r.failed);
    EXPECT_TRUE(model::isQuiescent(r.next, mc));
    EXPECT_EQ(static_cast<proto::LineState>(r.next.line[0][0]),
              proto::LineState::read_only);
    // Cascade: proc_read sample + directory sample + response sample.
    EXPECT_GE(r.samples.size(), 3u);
}

/** Why @p a and @p b, results of the same step, differ (empty when
 *  they agree in the successor, the failure and every sample). */
std::string
stepDifference(const model::ModelConfig &mc,
               const model::Stepper::Result &a,
               const model::Stepper::Result &b)
{
    if (a.failed != b.failed || a.failureMsg != b.failureMsg)
        return "failure: \"" + a.failureMsg + "\" vs \"" +
               b.failureMsg + "\"";
    if (!a.failed) {
        std::vector<std::uint8_t> ea, eb;
        model::encodeState(a.next, mc, ea);
        model::encodeState(b.next, mc, eb);
        if (ea != eb)
            return "successor encodings differ";
    }
    if (a.samples.size() != b.samples.size())
        return "sample counts differ";
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        const model::Sample &x = a.samples[i];
        const model::Sample &y = b.samples[i];
        if (x.role != y.role || x.pre != y.pre || x.post != y.post ||
            x.input != y.input || x.guard != y.guard ||
            x.emissions != y.emissions)
            return "sample " + std::to_string(i) + " differs";
    }
    return {};
}

TEST(Stepper, ReusedStepperMatchesFreshOne)
{
    // A stepper restores only the controllers whose slice of the
    // state differs from the one they hold (everything after a
    // trapped failure). Walk every transition of a space with trapped
    // failures in BFS order through one reused stepper and compare
    // each step with a stepper built for that step alone: restoring
    // less must never change a step.
    model::ModelConfig mc = threeNodes();
    mc.reorder = 1;
    model::Stepper reused(mc);

    std::set<std::vector<std::uint8_t>> seen;
    std::deque<model::GlobalState> frontier;
    std::vector<std::uint8_t> enc;
    model::canonicalEncoding(model::Stepper::initialState(), mc, enc);
    seen.insert(enc);
    frontier.push_back(model::Stepper::initialState());

    std::vector<model::Action> actions;
    model::Stepper::Result r, fresh;
    std::size_t steps = 0, stepsAfterFailure = 0;
    bool lastFailed = false;
    while (!frontier.empty()) {
        const model::GlobalState s = frontier.front();
        frontier.pop_front();
        model::enumerateActions(s, mc, actions);
        for (const model::Action &a : actions) {
            reused.step(s, a, r);
            model::Stepper once(mc);
            once.step(s, a, fresh);
            const std::string diff = stepDifference(mc, r, fresh);
            ASSERT_TRUE(diff.empty())
                << "step " << steps << " (" << a.format()
                << "): " << diff;
            ++steps;
            stepsAfterFailure += lastFailed ? 1 : 0;
            lastFailed = r.failed;
            if (r.failed)
                continue;
            model::canonicalEncoding(r.next, mc, enc);
            if (seen.insert(enc).second)
                frontier.push_back(r.next);
        }
    }
    // The 726-state / 1879-transition space of the explorer, with
    // its trapped assertions, each followed by a reused step.
    EXPECT_EQ(seen.size(), 726u);
    EXPECT_EQ(steps, 1879u);
    EXPECT_GT(stepsAfterFailure, 0u);

    // Those traps all fire before any handler ran. This one fires
    // mid-cascade: the home's directory wrongly records its own node
    // as the exclusive owner, so node 0's write miss leaves its cache
    // waiting and marks the entry busy before the directory asserts
    // that an owner never misses. The next step from the same state
    // must not see either change.
    const model::ModelConfig two = twoNodes();
    model::Stepper again(two);
    model::GlobalState bad = model::Stepper::initialState();
    bad.dir[0].state = proto::DirState::exclusive;
    bad.dir[0].owner = 0;
    model::Action write = issueRead(0);
    write.kind = model::Action::Kind::issue_write;
    again.step(bad, write, r);
    ASSERT_TRUE(r.failed);
    again.step(bad, issueRead(0), r);
    model::Stepper once(two);
    once.step(bad, issueRead(0), fresh);
    EXPECT_EQ(stepDifference(two, r, fresh), "");
}

// ---------------------------------------------------------------------
// Canonicalization (symmetry reduction)

TEST(Canonical, SymmetricNodesCanonicalizeIdentically)
{
    // Nodes 1 and 2 of a 3-node, 1-block machine are interchangeable
    // (only node 0 is a home). The same action done by either must
    // reach the same canonical state.
    const model::ModelConfig mc = threeNodes();
    model::Stepper stepper(mc);

    model::Stepper::Result byNode1, byNode2;
    stepper.step(model::Stepper::initialState(), issueRead(1), byNode1);
    stepper.step(model::Stepper::initialState(), issueRead(2), byNode2);
    ASSERT_FALSE(byNode1.failed);
    ASSERT_FALSE(byNode2.failed);

    std::vector<std::uint8_t> plain1, plain2, canon1, canon2;
    model::encodeState(byNode1.next, mc, plain1);
    model::encodeState(byNode2.next, mc, plain2);
    model::canonicalEncoding(byNode1.next, mc, canon1);
    model::canonicalEncoding(byNode2.next, mc, canon2);
    EXPECT_NE(plain1, plain2); // genuinely different concrete states
    EXPECT_EQ(canon1, canon2); // ... identified by symmetry
}

TEST(Canonical, ExplicitPermutationIsInvariant)
{
    const model::ModelConfig mc = threeNodes();
    model::Stepper stepper(mc);

    // Drive to an asymmetric mid-transaction state: node 1 waiting.
    model::Stepper::Result r;
    stepper.step(model::Stepper::initialState(), issueRead(1), r);
    ASSERT_FALSE(r.failed);

    std::array<std::uint8_t, model::max_nodes> swap12{};
    swap12[0] = 0;
    swap12[1] = 2;
    swap12[2] = 1;
    const model::GlobalState permuted =
        model::permuteNodes(r.next, mc, swap12);

    std::vector<std::uint8_t> canonOrig, canonPerm;
    model::canonicalEncoding(r.next, mc, canonOrig);
    model::canonicalEncoding(permuted, mc, canonPerm);
    EXPECT_EQ(canonOrig, canonPerm);
}

TEST(Canonical, EncodeDecodeRoundTrips)
{
    const model::ModelConfig mc = threeNodes();
    model::Stepper stepper(mc);
    model::Stepper::Result r;
    stepper.step(model::Stepper::initialState(), issueRead(1), r);
    ASSERT_FALSE(r.failed);

    std::vector<std::uint8_t> enc, enc2;
    model::encodeState(r.next, mc, enc);
    model::GlobalState decoded;
    model::decodeState(enc.data(), enc.size(), mc, decoded);
    model::encodeState(decoded, mc, enc2);
    EXPECT_EQ(enc, enc2);
}

// ---------------------------------------------------------------------
// Exhaustive exploration

TEST(Explore, TwoNodeSpaceIsCleanWithGoldenCounts)
{
    model::ExploreOptions opt;
    opt.mc = twoNodes();
    const model::ExploreResult res = model::explore(opt);

    EXPECT_TRUE(res.clean());
    EXPECT_TRUE(res.complete);
    EXPECT_EQ(res.states, 48u);
    EXPECT_EQ(res.transitions, 86u);
    EXPECT_EQ(res.maxDepth, 8u);
    EXPECT_EQ(res.deadlocks, 0u);
    EXPECT_EQ(res.failedSteps, 0u);
    EXPECT_TRUE(res.consistent());
}

TEST(Explore, ThreeNodeSpaceIsCleanWithGoldenCounts)
{
    model::ExploreOptions opt;
    opt.mc = threeNodes();
    const model::ExploreResult res = model::explore(opt);

    EXPECT_TRUE(res.clean());
    EXPECT_EQ(res.states, 488u);
    EXPECT_EQ(res.transitions, 1152u);
    EXPECT_EQ(res.maxDepth, 15u);
    EXPECT_TRUE(res.consistent());
}

TEST(Explore, ForwardingTwoNodeSpaceIsCleanWithGoldenCounts)
{
    model::ExploreOptions opt;
    opt.mc = twoNodes();
    opt.mc.forwarding = true;
    const model::ExploreResult res = model::explore(opt);

    EXPECT_TRUE(res.clean());
    EXPECT_TRUE(res.complete);
    EXPECT_EQ(res.states, 78u);
    EXPECT_EQ(res.transitions, 142u);
    EXPECT_EQ(res.maxDepth, 10u);
    EXPECT_EQ(res.failedSteps, 0u);
    EXPECT_TRUE(res.consistent());
}

TEST(Explore, ForwardingThreeNodeSpaceIsCleanWithGoldenCounts)
{
    // The space where the pre-fwd_ack protocol races (three distinct
    // parties: home, owner, requester). Closure with zero violations
    // is the proof of the forwarding fix.
    model::ExploreOptions opt;
    opt.mc = threeNodes();
    opt.mc.forwarding = true;
    const model::ExploreResult res = model::explore(opt);

    EXPECT_TRUE(res.clean());
    EXPECT_TRUE(res.complete);
    EXPECT_EQ(res.states, 883u);
    EXPECT_EQ(res.transitions, 2149u);
    EXPECT_EQ(res.maxDepth, 17u);
    EXPECT_EQ(res.failedSteps, 0u);
    EXPECT_TRUE(res.consistent());
}

TEST(Explore, ForwardingDowngradePolicyIsClean)
{
    model::ExploreOptions opt;
    opt.mc = threeNodes();
    opt.mc.forwarding = true;
    opt.mc.policy = OwnerReadPolicy::downgrade;
    const model::ExploreResult res = model::explore(opt);
    EXPECT_TRUE(res.clean());
    EXPECT_EQ(res.states, 857u);
    EXPECT_EQ(res.transitions, 2034u);
    EXPECT_TRUE(res.consistent());
}

TEST(Explore, LegacyForwardingTwoNodesCannotRace)
{
    // The three-hop race needs home, owner, and requester to be
    // three different nodes: with two nodes the requester is always
    // the home or the owner, so even the ack-less legacy protocol
    // closes cleanly. The negative leg below must therefore run at
    // three nodes -- a 2-node "proof" of the fix proves nothing.
    model::ExploreOptions opt;
    opt.mc = twoNodes();
    opt.mc.forwarding = true;
    opt.mc.legacyForwarding = true;
    const model::ExploreResult res = model::explore(opt);
    EXPECT_TRUE(res.clean());
}

TEST(Explore, LegacyForwardingThreeNodesReproducesTheRace)
{
    // The negative oracle: without the fwd_ack the directory reopens
    // the entry on the owner's revision message, its next
    // invalidation overtakes the owner's in-flight data reply on a
    // disjoint channel, and the requester sees an invalidation for a
    // block it is still waiting on.
    model::ExploreOptions opt;
    opt.mc = threeNodes();
    opt.mc.forwarding = true;
    opt.mc.legacyForwarding = true;
    const model::ExploreResult res = model::explore(opt);

    EXPECT_FALSE(res.clean());
    EXPECT_TRUE(res.complete); // traps, not aborts
    EXPECT_GT(res.failedSteps, 0u);
    EXPECT_TRUE(hasViolation(res, check::ViolationKind::assertion));
    ASSERT_FALSE(res.counterexamples.empty());
    bool requesterPanicked = false;
    for (const auto &ce : res.counterexamples) {
        if (ce.violation.detail.find("state wait_") !=
            std::string::npos)
            requesterPanicked = true;
    }
    EXPECT_TRUE(requesterPanicked);
}

TEST(Explore, DowngradePolicyIsClean)
{
    model::ExploreOptions opt;
    opt.mc = threeNodes();
    opt.mc.policy = OwnerReadPolicy::downgrade;
    const model::ExploreResult res = model::explore(opt);
    EXPECT_TRUE(res.clean());
    EXPECT_EQ(res.states, 479u);
    EXPECT_EQ(res.transitions, 1128u);
    EXPECT_TRUE(res.consistent());
}

TEST(Explore, DedupMatchesBruteForceEnumeration)
{
    // Independent reference BFS: plain encodings in a std::set, no
    // symmetry (a 2-node, 1-block machine has no symmetric node
    // pair, so the canonical space and the concrete space coincide).
    // It also resolves every sample to its declared row itself, so
    // the explorer's row hits are checked against a plain count.
    const model::ModelConfig mc = twoNodes();
    model::Stepper stepper(mc);
    const proto::ProtocolTable &table = stepper.table();

    std::set<std::vector<std::uint8_t>> seen;
    std::deque<model::GlobalState> frontier;
    std::size_t transitions = 0;
    std::vector<std::uint64_t> rowHits(table.rows().size(), 0);

    std::vector<std::uint8_t> enc;
    model::encodeState(model::Stepper::initialState(), mc, enc);
    seen.insert(enc);
    frontier.push_back(model::Stepper::initialState());

    std::vector<model::Action> actions;
    model::Stepper::Result r;
    while (!frontier.empty()) {
        const model::GlobalState s = frontier.front();
        frontier.pop_front();
        actions.clear();
        model::enumerateActions(s, mc, actions);
        for (const model::Action &a : actions) {
            stepper.step(s, a, r);
            ASSERT_FALSE(r.failed) << a.format();
            ++transitions;
            for (const model::Sample &smp : r.samples) {
                const proto::TransitionRow *row =
                    table.find(smp.role, smp.pre, smp.input, smp.guard);
                ASSERT_NE(row, nullptr) << a.format();
                ++rowHits[row - table.rows().data()];
            }
            model::encodeState(r.next, mc, enc);
            if (seen.insert(enc).second)
                frontier.push_back(r.next);
        }
    }

    model::ExploreOptions opt;
    opt.mc = mc;
    const model::ExploreResult res = model::explore(opt);
    EXPECT_EQ(res.states, seen.size());
    EXPECT_EQ(res.transitions, transitions);
    EXPECT_EQ(res.rowHits, rowHits);
}

TEST(Explore, MaxStatesBoundReportsIncomplete)
{
    model::ExploreOptions opt;
    opt.mc = threeNodes();
    opt.maxStates = 10;
    const model::ExploreResult res = model::explore(opt);
    EXPECT_FALSE(res.complete);
    EXPECT_FALSE(res.clean());
    EXPECT_TRUE(hasViolation(res, check::ViolationKind::liveness));
}

/** Everything an exploration reports, rendered: the JSON artifact,
 *  the human report and every counterexample. */
std::string
renderedResults(const model::ExploreOptions &opt)
{
    const model::ExploreResult res = model::explore(opt);
    const std::string path = testing::TempDir() + "model_threads.json";
    EXPECT_TRUE(model::writeReportJson(path, opt.mc, res));
    std::ifstream f(path);
    std::string out((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    out += model::renderReport(opt.mc, res);
    for (const model::Counterexample &ce : res.counterexamples)
        out += model::formatCounterexample(opt.mc, ce);
    return out;
}

TEST(Explore, ThreadCountDoesNotChangeResults)
{
    // Workers expand a batch in chunks and the merge inserts in
    // (batch position, action index) order, so no report may depend
    // on the thread count. Three workers split batches unevenly.
    std::map<std::string, model::ExploreOptions> cases;
    const auto add = [&cases](const std::string &name, NodeId nodes,
                              unsigned blocks) -> model::ExploreOptions & {
        model::ExploreOptions &opt = cases[name];
        opt.mc.numNodes = nodes;
        opt.mc.numBlocks = blocks;
        return opt;
    };
    add("2n", 2, 1);
    add("3n", 3, 1);
    add("3n2b", 3, 2);
    add("2n forwarding", 2, 1).mc.forwarding = true;
    add("3n forwarding", 3, 1).mc.forwarding = true;
    add("2n planted bug", 2, 1).mc.ignoreInvalEvery = 1;
    model::ExploreOptions &legacy = add("3n legacy forwarding", 3, 1);
    legacy.mc.forwarding = true;
    legacy.mc.legacyForwarding = true;
    add("3n reorder 1", 3, 1).mc.reorder = 1; // traps assertions
    add("3n2b cut off", 3, 2).maxStates = 1000; // mid-batch

    for (auto &[name, opt] : cases) {
        opt.threads = 1;
        const std::string one = renderedResults(opt);
        opt.threads = 3;
        EXPECT_EQ(one, renderedResults(opt)) << name;
    }

    // The cut-off lands where a one-state-at-a-time search stopped.
    model::ExploreOptions cut = cases.at("3n2b cut off");
    const model::ExploreResult res = model::explore(cut);
    EXPECT_FALSE(res.complete);
    EXPECT_EQ(res.states, 1001u);
    EXPECT_EQ(res.transitions, 2280u);
    EXPECT_EQ(res.maxDepth, 4u);
}

// ---------------------------------------------------------------------
// Planted-bug detection (negative testing)

TEST(Explore, PlantedLostInvalidationViolatesSWMR)
{
    model::ExploreOptions opt;
    opt.mc = twoNodes();
    opt.mc.ignoreInvalEvery = 1;
    const model::ExploreResult res = model::explore(opt);

    EXPECT_FALSE(res.clean());
    EXPECT_TRUE(
        hasViolation(res, check::ViolationKind::writer_and_readers));
    ASSERT_FALSE(res.counterexamples.empty());
    EXPECT_FALSE(res.counterexamples.front().schedule.empty());
    // The buggy space is larger than the clean one (stale read_only
    // copies survive), and the checker keeps exploring past the
    // first violation rather than aborting.
    EXPECT_GT(res.states, 48u);
}

TEST(Explore, PlantedFaultDivergesFromItsDeclaredRow)
{
    // The planted fault leaves a read_only copy in place where the
    // declared row invalidates it. Whether the cache ignores every
    // invalidation (1) or every other one (2), the search must report
    // exactly that divergence, once: the consistency check is the
    // model's only runtime table check, so it has to be able to fail.
    for (unsigned every : {1u, 2u}) {
        SCOPED_TRACE(every);
        model::ExploreOptions opt;
        opt.mc = twoNodes();
        opt.mc.ignoreInvalEvery = every;
        const model::ExploreResult res = model::explore(opt);

        EXPECT_FALSE(res.consistent());
        ASSERT_EQ(res.consistency.size(), 1u);
        const model::ConsistencyFinding &f = res.consistency.front();
        EXPECT_EQ(f.kind,
                  model::ConsistencyFinding::Kind::outcome_mismatch);
        EXPECT_EQ(f.role, proto::Role::cache);
        const std::string observed =
            "cache read_only x inval_ro_request observed -> read_only "
            "! inval_ro_response but the row at ";
        const std::string declared =
            " declares -> invalid ! inval_ro_response";
        EXPECT_EQ(f.detail.rfind(observed, 0), 0u) << f.detail;
        ASSERT_GE(f.detail.size(), declared.size());
        EXPECT_EQ(f.detail.substr(f.detail.size() - declared.size()),
                  declared)
            << f.detail;
    }
}

TEST(Explore, TrappedAssertionsDoNotAbortExploration)
{
    // Bounded network overtaking (reorder=1) breaks the protocol's
    // FIFO-channel assumption; the controllers assert. The FailureTrap
    // must convert each into a terminal violation while the BFS keeps
    // exploring the rest of the space.
    model::ExploreOptions opt;
    opt.mc = twoNodes();
    opt.mc.reorder = 1;
    const model::ExploreResult res = model::explore(opt);

    EXPECT_GT(res.failedSteps, 0u);
    EXPECT_TRUE(res.complete); // ran to closure despite the traps
    EXPECT_FALSE(res.counterexamples.empty());
    EXPECT_TRUE(hasViolation(res, check::ViolationKind::assertion));
    // Strictly more states than the FIFO space: exploration continued
    // past the first trapped assertion.
    EXPECT_GT(res.states, 48u);
}

// ---------------------------------------------------------------------
// Replay regression seed: the model checker's original forwarding
// counterexample

/** One step of a pinned schedule: a processor issue or a delivery. */
struct SeedStep
{
    bool issue;
    NodeId node;          ///< issuing node (issue)
    bool write;           ///< issue kind
    NodeId src, dst;      ///< channel (deliver)
    proto::MsgType type;  ///< delivered message (deliver)
};

constexpr SeedStep
seedIssue(NodeId node, bool write)
{
    return {true, node, write, 0, 0, proto::MsgType::get_ro_request};
}

constexpr SeedStep
seedDeliver(NodeId src, NodeId dst, proto::MsgType type)
{
    return {false, 0, false, src, dst, type};
}

/**
 * The first counterexample `cosmos model --forwarding
 * --legacy-forwarding --nodes 3` ever produced, pinned verbatim: the
 * timed simulator cannot reproduce it (uniform latencies keep the
 * home's next invalidation two hops behind the owner's data reply),
 * so the regression seed replays through the model Stepper, which
 * explores delivery orders the network would need adversarial timing
 * to produce.
 *
 * node 2 owns the block; node 1's read is queued; node 0's write is
 * queued behind it. The owner's forwarded data reply to node 1 and
 * the revision home race: legacy reopens the entry on the revision,
 * serves node 0's write, and its inval_ro_request reaches node 1
 * while the forwarded data is still in flight.
 */
constexpr SeedStep legacy_race_schedule[] = {
    seedIssue(1, false),
    seedIssue(2, true),
    seedDeliver(2, 0, proto::MsgType::get_rw_request),
    seedDeliver(0, 2, proto::MsgType::get_rw_response),
    seedDeliver(1, 0, proto::MsgType::get_ro_request),
    seedIssue(0, true),
    seedDeliver(0, 2, proto::MsgType::inval_rw_request),
    seedDeliver(2, 0, proto::MsgType::inval_rw_response),
    // Legacy only: the entry reopened above, so node 0's queued
    // write was served and this invalidation is in flight. Under
    // the fixed protocol the entry is still awaiting node 1's
    // fwd_ack and this message does not exist.
    seedDeliver(0, 1, proto::MsgType::inval_ro_request),
};

/** Find @p step among the enabled actions of @p s, or report why
 *  it is not enabled. */
testing::AssertionResult
findSeedAction(const model::GlobalState &s,
               const model::ModelConfig &mc, const SeedStep &step,
               model::Action &out)
{
    std::vector<model::Action> actions;
    model::enumerateActions(s, mc, actions);
    for (const model::Action &a : actions) {
        if (step.issue) {
            const auto want = step.write
                                  ? model::Action::Kind::issue_write
                                  : model::Action::Kind::issue_read;
            if (a.kind == want && a.node == step.node) {
                out = a;
                return testing::AssertionSuccess();
            }
        } else if (a.kind == model::Action::Kind::deliver &&
                   a.src == step.src && a.dst == step.dst &&
                   a.msg.type == step.type) {
            out = a;
            return testing::AssertionSuccess();
        }
    }
    return testing::AssertionFailure()
           << "schedule step not enabled (" << actions.size()
           << " actions)";
}

TEST(Replay, LegacyRaceSeedStillTripsTheOracle)
{
    model::ModelConfig mc = threeNodes();
    mc.forwarding = true;
    mc.legacyForwarding = true;
    model::Stepper stepper(mc);

    model::GlobalState s = model::Stepper::initialState();
    model::Stepper::Result r;
    const std::size_t steps = std::size(legacy_race_schedule);
    for (std::size_t i = 0; i < steps; ++i) {
        model::Action a;
        ASSERT_TRUE(
            findSeedAction(s, mc, legacy_race_schedule[i], a))
            << "step " << i;
        stepper.step(s, a, r);
        if (i + 1 < steps) {
            ASSERT_FALSE(r.failed)
                << "step " << i << ": " << r.failureMsg;
            s = r.next;
        }
    }
    // The final delivery is the invalidation overtaking the
    // forwarded data: the requester's controller must trap.
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.failureMsg.find("state wait_ro"), std::string::npos)
        << r.failureMsg;
}

TEST(Replay, LegacyRaceSeedIsClosedByTheAckProtocol)
{
    // Same schedule, fixed protocol: after the owner's revision
    // lands (step 7) the entry must still be busy awaiting node 1's
    // fwd_ack, the racing invalidation must not exist, and draining
    // the remaining messages must reach quiescence cleanly -- the
    // delayed ack serves the queued write only after the handshake
    // closes.
    model::ModelConfig mc = threeNodes();
    mc.forwarding = true;
    model::Stepper stepper(mc);

    model::GlobalState s = model::Stepper::initialState();
    model::Stepper::Result r;
    const std::size_t prefix = std::size(legacy_race_schedule) - 1;
    for (std::size_t i = 0; i < prefix; ++i) {
        model::Action a;
        ASSERT_TRUE(
            findSeedAction(s, mc, legacy_race_schedule[i], a))
            << "step " << i;
        stepper.step(s, a, r);
        ASSERT_FALSE(r.failed)
            << "step " << i << ": " << r.failureMsg;
        s = r.next;
    }

    // Block 0 is homed at node 0; its entry holds the transfer open.
    EXPECT_TRUE(s.dir[0].busy);
    EXPECT_TRUE(s.dir[0].fwdAckPending);
    std::vector<model::Action> actions;
    model::enumerateActions(s, mc, actions);
    model::Action dataDeliver;
    bool sawData = false;
    for (const model::Action &a : actions) {
        if (a.kind != model::Action::Kind::deliver)
            continue;
        // The racing invalidation of the legacy schedule must not be
        // deliverable anywhere.
        EXPECT_NE(a.msg.type, proto::MsgType::inval_ro_request)
            << a.format();
        // The forwarded data (owner -> requester) is still in
        // flight; the ack does not exist until it lands.
        EXPECT_NE(a.msg.type, proto::MsgType::fwd_ack) << a.format();
        if (a.src == 2 && a.dst == 1) {
            sawData = true;
            dataDeliver = a;
        }
    }
    ASSERT_TRUE(sawData);

    // Landing the forwarded data makes the requester emit fwd_ack.
    stepper.step(s, dataDeliver, r);
    ASSERT_FALSE(r.failed) << r.failureMsg;
    s = r.next;
    EXPECT_TRUE(s.dir[0].busy);
    EXPECT_TRUE(s.dir[0].fwdAckPending);
    actions.clear();
    model::enumerateActions(s, mc, actions);
    model::Action ackDeliver;
    bool sawAck = false;
    for (const model::Action &a : actions) {
        if (a.kind == model::Action::Kind::deliver &&
            a.msg.type == proto::MsgType::fwd_ack) {
            sawAck = true;
            ackDeliver = a;
        }
    }
    ASSERT_TRUE(sawAck);

    // Deliver the delayed ack first, then drain to quiescence.
    stepper.step(s, ackDeliver, r);
    ASSERT_FALSE(r.failed) << r.failureMsg;
    s = r.next;
    for (int guard = 0; guard < 64; ++guard) {
        if (model::isQuiescent(s, mc))
            break;
        actions.clear();
        model::enumerateActions(s, mc, actions);
        // Drain deliveries only: issue_* actions would inject fresh
        // traffic and keep the system away from quiescence.
        const auto it = std::find_if(
            actions.begin(), actions.end(),
            [](const model::Action &a) {
                return a.kind == model::Action::Kind::deliver;
            });
        ASSERT_NE(it, actions.end()); // no deadlock
        stepper.step(s, *it, r);
        ASSERT_FALSE(r.failed) << r.failureMsg;
        s = r.next;
    }
    EXPECT_TRUE(model::isQuiescent(s, mc));
    // Every issued access completed: node 0's queued write won the
    // block last in this drain order or earlier -- either way the
    // protocol settled with a single writer or no copies, which
    // quiescence plus the explorer's invariants already guarantee.
    EXPECT_FALSE(s.dir[0].busy);
    EXPECT_FALSE(s.dir[0].fwdAckPending);
}

// ---------------------------------------------------------------------
// Counterexample replay through the real simulator

TEST(Counterexample, FormatHasHeaderAndSteps)
{
    model::ExploreOptions opt;
    opt.mc = twoNodes();
    opt.mc.ignoreInvalEvery = 1;
    const model::ExploreResult res = model::explore(opt);
    ASSERT_FALSE(res.counterexamples.empty());

    const std::string text = model::formatCounterexample(
        opt.mc, res.counterexamples.front());
    EXPECT_NE(text.find("# cosmos-model-counterexample-v1"),
              std::string::npos);
    EXPECT_NE(text.find("# config nodes=2"), std::string::npos);
    EXPECT_NE(text.find("legacy_forwarding=0"), std::string::npos);
    EXPECT_NE(text.find("inject_ignore_inval=1"), std::string::npos);
    EXPECT_NE(text.find("step 0 "), std::string::npos);
}

TEST(Counterexample, LegacyForwardingRoundTripsThroughLoader)
{
    model::ExploreOptions opt;
    opt.mc = threeNodes();
    opt.mc.forwarding = true;
    opt.mc.legacyForwarding = true;
    const model::ExploreResult res = model::explore(opt);
    ASSERT_FALSE(res.counterexamples.empty());

    const std::string path =
        testing::TempDir() + "legacy_counterexample.txt";
    ASSERT_TRUE(model::writeCounterexample(
        path, opt.mc, res.counterexamples.front()));
    const check::FuzzCase c = check::loadCounterexample(path);
    EXPECT_EQ(c.cfg.numNodes, 3u);
    EXPECT_TRUE(c.cfg.forwarding);
    EXPECT_TRUE(c.cfg.legacyForwarding);
    std::remove(path.c_str());
}

TEST(Counterexample, ReplaysThroughRealSimulatorAndReproduces)
{
    model::ExploreOptions opt;
    opt.mc = twoNodes();
    opt.mc.ignoreInvalEvery = 1;
    const model::ExploreResult res = model::explore(opt);
    ASSERT_FALSE(res.counterexamples.empty());

    const std::string path =
        testing::TempDir() + "model_counterexample.txt";
    ASSERT_TRUE(model::writeCounterexample(
        path, opt.mc, res.counterexamples.front()));

    const check::FuzzCase c = check::loadCounterexample(path);
    EXPECT_EQ(c.cfg.numNodes, 2u);
    EXPECT_EQ(c.cfg.fault.ignoreInvalEvery, 1u);
    EXPECT_GT(c.totalOps(), 0u);

    check::FuzzOptions fopts;
    fopts.maxJitter = 0; // deterministic delivery: replay the schedule
    const check::CaseResult r = check::runCase(c, fopts);
    EXPECT_TRUE(r.failed);
    bool swmr = false;
    for (const check::Violation &v : r.violations)
        if (v.kind == check::ViolationKind::writer_and_readers ||
            v.kind == check::ViolationKind::multiple_writers)
            swmr = true;
    EXPECT_TRUE(swmr);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Declared-row hits

TEST(Lint, CleanRunFlagsOnlyDeadTableSpace)
{
    // A tiny space leaves live rows unhit, and the row hits show
    // which. Recall paths need capacity evictions, which the model's
    // infinite-capacity caches never trigger, so no busy_recall row
    // may be hit.
    model::ExploreOptions opt;
    opt.mc = twoNodes();
    const model::ExploreResult res = model::explore(opt);
    ASSERT_TRUE(res.consistent());

    const proto::ProtocolTable table =
        proto::ProtocolTable::build(opt.mc.machineConfig());
    ASSERT_EQ(res.rowHits.size(), table.rows().size());
    bool sawRecallRow = false, sawUnhit = false;
    for (std::size_t i = 0; i < table.rows().size(); ++i) {
        const proto::TransitionRow &r = table.rows()[i];
        const std::uint64_t hits = res.rowHits[i];
        if (r.unreachable) {
            EXPECT_EQ(hits, 0u) << r.format();
            continue;
        }
        if (r.role == proto::Role::directory &&
            r.state ==
                static_cast<std::uint8_t>(proto::DirPhase::busy_recall)) {
            sawRecallRow = true;
            EXPECT_EQ(hits, 0u) << r.format();
        }
        if (hits == 0)
            sawUnhit = true;
    }
    EXPECT_TRUE(sawRecallRow);
    EXPECT_TRUE(sawUnhit);
}

TEST(Lint, TableEntriesCoverBothModules)
{
    // Every handler invocation lands on a declared row, and the hit
    // rows span both roles: the cache and the directory module.
    model::ExploreOptions opt;
    opt.mc = twoNodes();
    const model::ExploreResult res = model::explore(opt);
    ASSERT_TRUE(res.consistent());

    const proto::ProtocolTable table =
        proto::ProtocolTable::build(opt.mc.machineConfig());
    ASSERT_EQ(res.rowHits.size(), table.rows().size());
    bool sawCache = false, sawDir = false;
    for (std::size_t i = 0; i < table.rows().size(); ++i) {
        if (res.rowHits[i] == 0)
            continue;
        if (table.rows()[i].role == proto::Role::cache)
            sawCache = true;
        else
            sawDir = true;
    }
    EXPECT_TRUE(sawCache);
    EXPECT_TRUE(sawDir);
}

TEST(Lint, ForwardingAsymmetryHoldsInForwardedSpaces)
{
    // DirectoryController::forward() marks only inval_rw/downgrade
    // recalls forwarded: inval_ro sweeps target shared blocks, whose
    // data the home itself holds, so a cache answering one with a
    // data response would bypass the fwd_ack handshake entirely. In a
    // consistent run every sample emitted exactly what its row
    // declares, so it suffices that no hit inval_ro row is forwarded
    // or declares a data response -- while the forwarded recall row
    // is hit.
    model::ExploreOptions opt;
    opt.mc = threeNodes();
    opt.mc.forwarding = true;
    const model::ExploreResult res = model::explore(opt);
    ASSERT_TRUE(res.clean());
    ASSERT_TRUE(res.consistent());

    const proto::ProtocolTable table =
        proto::ProtocolTable::build(opt.mc.machineConfig());
    const auto in = [](proto::MsgType t) {
        return static_cast<std::uint8_t>(t);
    };
    bool sawForwardedRecallRow = false;
    for (std::size_t i = 0; i < table.rows().size(); ++i) {
        const proto::TransitionRow &r = table.rows()[i];
        if (r.role != proto::Role::cache || res.rowHits[i] == 0)
            continue;
        if (r.input == in(proto::MsgType::inval_rw_request) &&
            r.guard == (proto::guard_fwd | proto::guard_rw))
            sawForwardedRecallRow = true;
        if (r.input != in(proto::MsgType::inval_ro_request))
            continue;
        EXPECT_EQ(r.guard & proto::guard_fwd, 0u) << r.format();
        for (proto::MsgType t : r.emits) {
            EXPECT_NE(t, proto::MsgType::get_ro_response) << r.format();
            EXPECT_NE(t, proto::MsgType::get_rw_response) << r.format();
        }
    }
    EXPECT_TRUE(sawForwardedRecallRow);
}

} // namespace
} // namespace cosmos
