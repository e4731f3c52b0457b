/**
 * @file
 * Exhaustive BFS over the protocol's reachable global states.
 *
 * Small configurations (2-3 nodes, 1-2 blocks, bounded network
 * reordering) are explored to closure: every reachable canonical
 * state is visited exactly once, every enabled action of every state
 * is executed through the live controllers (model/stepper), and each
 * discovered state is checked against the protocol's safety
 * properties -- the coherence rule of proto/invariants (SWMR,
 * directory/cache agreement), then deadlock-freedom -- reported as
 * the check layer's structured Violation records.
 *
 * The visited set stores canonical encodings (model/state symmetry
 * reduction) in an Arena, indexed by a FlatMap from 64-bit FNV-1a
 * hashes to chains of states sharing the hash; membership is decided
 * by byte comparison, so dedup is exact, never probabilistic.
 *
 * Violating and failed (trapped-assertion) states are terminal: they
 * are recorded with a shortest-path counterexample but not expanded,
 * so a clean run's state count is a golden number and a buggy run
 * stops at the frontier of the bug. Counterexample schedules are
 * translated back from canonical node numbering to a concrete
 * executable schedule (see canonicalEncoding's bestPerm) and verified
 * by re-execution before being reported.
 *
 * The search is parallel and its results do not depend on the thread
 * count. Each round takes a bounded batch of ids from the head of the
 * FIFO frontier. Workers, each with its own Stepper, claim chunks of
 * the batch and expand them: step every enabled action, encode, hash
 * and check each successor. The calling thread merges the chunks in
 * order as they become ready, and within a chunk in (batch position,
 * action index) order -- the order a one-state-at-a-time BFS steps in -- so
 * state ids, parent links, counterexamples, violation order, the
 * maxStates cut-off and every count match a serial search bit for
 * bit. Only the merge touches the visited set; workers read just the
 * batch states' arena bytes, which never move.
 *
 * The declared proto::ProtocolTable is the only transition table.
 * The merge counts each distinct handler sample; after the search
 * each resolves once to the row its dispatch matched, adds its count
 * to that row's hits, and is checked against the row's declared next
 * state and emissions.
 */

#ifndef COSMOS_MODEL_EXPLORER_HH
#define COSMOS_MODEL_EXPLORER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/violation.hh"
#include "model/state.hh"
#include "proto/messages.hh"

namespace cosmos::model
{

/** Knobs of one exploration. */
struct ExploreOptions
{
    ModelConfig mc;

    /** Livelock / scale bound: exceeding it aborts the exploration
     *  with a liveness violation (the protocol should close out in
     *  a bounded space at these sizes). */
    std::size_t maxStates = 1u << 20;

    /** Stop recording (not exploring) after this many violations. */
    unsigned maxViolations = 8;

    /** Workers expanding each batch, the calling thread included;
     *  0 = replay::ThreadPool::defaultThreadCount() (COSMOS_THREADS,
     *  else the hardware concurrency). Results do not depend on it. */
    unsigned threads = 0;
};

/** A violation plus the schedule reaching it from the initial state. */
struct Counterexample
{
    check::Violation violation;
    /** Concrete actions, executable from the all-invalid initial
     *  state (canonical-space node ids already translated back). */
    std::vector<Action> schedule;
    /** Per schedule step, the declared table rows (file:line plus the
     *  row text) each handler invocation of that step dispatched
     *  through -- the provenance trail rendered as `# row` comment
     *  lines in the replayable counterexample format. */
    std::vector<std::vector<std::string>> rowTrace;
};

/**
 * One disagreement between a sample and the declared row its dispatch
 * matched: a handler body doing something its row does not declare,
 * or the search reaching a row declared unreachable.
 */
struct ConsistencyFinding
{
    enum class Kind : std::uint8_t
    {
        /** A sample no declared row covers -- the dispatch itself
         *  would have trapped, so this flags find/guard drift. */
        undeclared_transition,
        /** A sample matched a declared-unreachable marker row. */
        unreachable_reached,
        /** Observed (next state, emissions) differ from the declared
         *  row's (next, emits). */
        outcome_mismatch,
    };

    Kind kind{};
    proto::Role role{};
    std::string detail;

    static const char *toString(Kind k);
};

/** Outcome of one exploration. */
struct ExploreResult
{
    std::size_t states = 0;      ///< distinct canonical states
    std::size_t transitions = 0; ///< actions executed
    std::size_t deadlocks = 0;   ///< terminal deadlock states
    std::size_t failedSteps = 0; ///< trapped assertions/panics
    unsigned maxDepth = 0;       ///< BFS radius of the space
    bool complete = true;        ///< false if maxStates was hit

    std::vector<Counterexample> counterexamples;
    /** Merged handler invocations per declared row, indexed like the
     *  rows of proto::ProtocolTable::build(mc.machineConfig()). */
    std::vector<std::uint64_t> rowHits;
    /** Samples that disagree with their declared row, ordered by
     *  (role, state, input, rendered guard), then by observed (next
     *  state, emitted types). Completing rows served from the "q"
     *  backlog are exempt from the outcome check: the directory
     *  re-serves the queued request inside the same atomic step, so
     *  the sample's post state and emissions include the follow-on
     *  transaction by design. */
    std::vector<ConsistencyFinding> consistency;

    bool clean() const { return counterexamples.empty() && complete; }

    /** True when every sample matched its declared row. */
    bool consistent() const { return consistency.empty(); }
};

/** Run the exhaustive exploration. */
ExploreResult explore(const ExploreOptions &opt);

/** Render a counterexample as the replayable text format
 *  (`# cosmos-model-counterexample-v1`). */
std::string formatCounterexample(const ModelConfig &mc,
                                 const Counterexample &ce);

/** Write @p ce to @p path; returns false on I/O error. */
bool writeCounterexample(const std::string &path, const ModelConfig &mc,
                         const Counterexample &ce);

} // namespace cosmos::model

#endif // COSMOS_MODEL_EXPLORER_HH
