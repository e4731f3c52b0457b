/**
 * @file
 * Schedule fuzzer for the coherence protocol.
 *
 * Each fuzz case derives a machine configuration, a random
 * multi-node read/write/think workload, and a network delivery-jitter
 * stream from one 64-bit seed, then runs it under the invariant
 * engine with assertion failures trapped into Violation records. The
 * jitter permutes the global message interleaving (per-channel FIFO
 * order is preserved -- the network's ordering contract) so one
 * workload explores many schedules across seeds.
 *
 * A failing seed is fully reproducible: `cosmos fuzz --replay <seed>`
 * rebuilds the identical case bit-for-bit (common/rng is
 * platform-independent). Failures are also greedily shrunk -- chunks
 * of each node's op list are deleted while the failure persists --
 * to a minimal reproducer reported alongside the violations.
 */

#ifndef COSMOS_CHECK_FUZZER_HH
#define COSMOS_CHECK_FUZZER_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "check/invariant_engine.hh"
#include "common/config.hh"
#include "runtime/program.hh"

namespace cosmos::check
{

/** Knobs of the fuzz campaign. */
struct FuzzOptions
{
    /** Cases to run (seeds baseSeed .. baseSeed+numSeeds-1). */
    unsigned numSeeds = 100;

    /** First seed of the campaign. */
    std::uint64_t baseSeed = 1;

    /** Nodes per fuzz machine. Small machines hit protocol races
     *  harder: fewer blocks, more contention per block. */
    NodeId numNodes = 4;

    /** Contended shared blocks, each homed on its own page. */
    unsigned numBlocks = 8;

    /** Random ops (read/write/think) per node. */
    unsigned opsPerNode = 64;

    /** Max extra delivery delay in ticks drawn per remote message.
     *  0 disables schedule fuzzing (pure workload fuzzing). */
    Tick maxJitter = 64;

    /** Passed through to MachineConfig::fault.ignoreInvalEvery --
     *  nonzero plants a lost-invalidation bug the checker must
     *  catch (negative testing / CI's planted-bug stage). */
    unsigned ignoreInvalEvery = 0;

    /**
     * Probability that a case's workload is drawn from the synthetic
     * forge (src/forge) instead of pure-random ops: structured
     * migratory / producer-consumer / false-sharing traffic with
     * per-seed random class fractions. Structured sharing drives the
     * protocol through its steady-state flows (ownership hand-offs,
     * fan-out invalidation bursts) that uniform random ops rarely
     * sustain. 0 = classic random workloads only.
     */
    double forgeMix = 0.0;

    /** Shrink failing cases to a minimal reproducer. */
    bool shrink = true;

    /** Cap on extra simulations spent shrinking one failure. */
    unsigned maxShrinkRuns = 200;
};

/** One generated case: everything derived from the seed. */
struct FuzzCase
{
    std::uint64_t seed = 0;
    MachineConfig cfg;
    std::vector<runtime::Program> programs;

    std::size_t totalOps() const;
};

/** Outcome of simulating one case. */
struct CaseResult
{
    std::uint64_t seed = 0;
    bool failed = false;
    std::vector<Violation> violations;
    std::uint64_t suppressed = 0;
    std::uint64_t delivered = 0;
};

/** One failing seed with its shrunk reproducer. */
struct Failure
{
    CaseResult result;
    std::size_t originalOps = 0;
    /** Ops surviving the shrink (== originalOps if shrinking off). */
    std::size_t shrunkOps = 0;
    /** Human rendering of the shrunk per-node programs. */
    std::vector<std::string> reproducer;
};

/** Campaign summary. */
struct FuzzReport
{
    unsigned casesRun = 0;
    std::vector<Failure> failures;

    bool clean() const { return failures.empty(); }
};

/** Deterministically derive the case for @p seed. */
FuzzCase makeCase(std::uint64_t seed, const FuzzOptions &opts);

/**
 * Simulate @p c under the invariant engine with failures trapped.
 * Quiescent-state checks run only when the run drains normally (a
 * trapped panic leaves the machine mid-flight, where quiescent
 * invariants do not apply).
 */
CaseResult runCase(const FuzzCase &c, const FuzzOptions &opts);

/**
 * Greedy delta-debugging shrink: repeatedly delete chunks of each
 * node's op list (halving chunk sizes down to single ops), keeping a
 * deletion when the case still fails. Returns the smallest failing
 * case found within opts.maxShrinkRuns extra simulations.
 */
FuzzCase shrinkCase(const FuzzCase &failing, const FuzzOptions &opts);

/**
 * Run the whole campaign. Per-case progress and failure summaries go
 * to @p log when non-null.
 */
FuzzReport fuzz(const FuzzOptions &opts, std::ostream *log = nullptr);

/** Re-run a single seed (shrinking if it fails), as `--replay`. */
Failure replaySeed(std::uint64_t seed, const FuzzOptions &opts);

/** Render one-line per-node programs ("node 2: W 0x1000, R 0x3000"). */
std::vector<std::string>
formatPrograms(const std::vector<runtime::Program> &programs);

/**
 * Lower a `cosmos-model-counterexample-v1` schedule (written by
 * `cosmos model --counterexample-out`) to a directed fuzz case that
 * runCase() can execute: the model's processor issues become per-node
 * read/write ops, each followed by a global barrier so their
 * cross-node order is exactly the model's schedule. Delivery steps
 * need no translation -- with zero jitter the real network's FIFO
 * channels deliver deterministically, and the faults the model
 * checker hunts (e.g. the planted every-Nth-lost-invalidation bug)
 * are functions of the issue order, not of message timing.
 *
 * The machine configuration (nodes, policy, forwarding, injected
 * fault) is parsed from the file's `# config` header. Calls
 * cosmos_fatal on a malformed file.
 */
FuzzCase loadCounterexample(const std::string &path);

/**
 * Write the campaign as a `cosmos-fuzz-v1` JSON artifact for CI
 * (scripts/check_json.py validates it). @return false on I/O error.
 */
bool writeReport(const FuzzReport &report, const FuzzOptions &opts,
                 const std::string &path);

} // namespace cosmos::check

#endif // COSMOS_CHECK_FUZZER_HH
