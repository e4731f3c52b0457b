/**
 * @file
 * Declarative transition table extracted from the live controllers.
 *
 * The model checker's stepper records one Sample per handler
 * invocation: which module ran (cache or directory), the state of the
 * addressed block before and after the atomic step, the input that
 * triggered it, a small context tag disambiguating inputs whose
 * outcome legitimately depends on more than the (state, input) pair,
 * and the multiset of messages the module emitted. Aggregating the
 * samples of an exhaustive exploration yields the protocol's
 * transition table as actually implemented -- a projection of the
 * code, not a hand-maintained duplicate, so it cannot drift.
 *
 * The lint pass then reports:
 *  - unreachable states (declared but never observed),
 *  - dead inputs (a (state, input) pair the exploration never hit),
 *  - nondeterministic entries (one key observed with more than one
 *    (next state, emission signature) outcome).
 *
 * Entries whose context carries the "q" tag aggregate over the
 * directory's queued-request backlog, whose contents legitimately
 * vary; their nondeterminism is expected and whitelisted. Any *other*
 * nondeterministic entry is a red flag -- the planted
 * lost-invalidation bug, for instance, shows up as
 * (cache, read_only, inval_ro_request) -> {invalid, read_only}.
 */

#ifndef COSMOS_MODEL_TABLE_HH
#define COSMOS_MODEL_TABLE_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "proto/cache_controller.hh"
#include "proto/directory_controller.hh"
#include "proto/messages.hh"
#include "proto/transition_table.hh"

namespace cosmos::model
{

/** Which controller a sample was taken from. */
enum class Module : std::uint8_t
{
    cache,
    directory,
};

const char *toString(Module m);

/**
 * Abstract directory-entry states: the quiescent DirState triple plus
 * the in-transaction phases (what kind of transaction the entry is
 * blocked on). This is the state column of the directory's rows.
 */
enum class DirAbstract : std::uint8_t
{
    idle,
    shared,
    exclusive,
    busy_read,   ///< read transaction awaiting the owner's copy
    busy_write,  ///< write transaction awaiting invalidation acks
    busy_recall, ///< voluntary recall awaiting the owner's copy
};

const char *toString(DirAbstract s);

/** Pseudo-inputs for processor accesses (the 13 MsgType values are
 *  0..12; these extend the input alphabet). */
constexpr std::uint8_t input_proc_read = 13;
constexpr std::uint8_t input_proc_write = 14;
constexpr unsigned num_inputs = 15;

/** Printable input name ("get_ro_request", "proc_read", ...). */
const char *inputName(std::uint8_t input);

static_assert(proto::num_msg_types <= 16,
              "Sample::emissions is a 16-bit mask of message types");

/** One observed handler invocation. */
struct Sample
{
    Module module{};
    std::uint8_t pre = 0;  ///< LineState or DirAbstract
    std::uint8_t post = 0; ///< LineState or DirAbstract
    std::uint8_t input = 0;
    /** Guard bits the dispatch derived; guardContext() renders them
     *  as the table key's context tag. */
    proto::GuardBits guard = proto::guard_none;
    /** Bit t set when the module emitted a message of type t
     *  (multiplicities and order abstracted away, as in Outcome). */
    std::uint16_t emissions = 0;
    /** The declared table row the dispatch matched (nullptr when no
     *  row covers the sample -- itself a consistency finding). Points
     *  into the stepper's ProtocolTable; valid for its lifetime. */
    const proto::TransitionRow *row = nullptr;
};

/** Key of one table row. */
struct TableKey
{
    Module module{};
    std::uint8_t state = 0;
    std::uint8_t input = 0;
    std::string context;

    auto operator<=>(const TableKey &) const = default;

    /** "cache read_only x inval_ro_request" (plus context). */
    std::string format() const;
};

/** One observed outcome of a row. */
struct Outcome
{
    std::uint8_t next = 0;
    /** Sorted distinct emitted message types; multiplicities are
     *  abstracted away (a directory invalidating two sharers emits
     *  the same signature as one invalidating a single sharer). */
    std::vector<proto::MsgType> emissions;

    auto operator<=>(const Outcome &) const = default;

    std::string format(Module module) const;
};

/** Aggregated row: every outcome ever observed for the key. */
struct TableEntry
{
    std::set<Outcome> outcomes;
    std::uint64_t hits = 0;
};

/** One lint finding over the extracted table. */
struct LintFinding
{
    enum class Kind : std::uint8_t
    {
        unreachable_state, ///< declared state never observed
        dead_input,        ///< (state, input) never exercised
        nondeterministic,  ///< key with > 1 outcome (not whitelisted)
        /** A cache handling an inval_ro_request emitted a data
         *  response. inval_ro sweeps target shared blocks, whose
         *  data the home itself holds, so they must never be
         *  forwarded three-hop -- only inval_rw/downgrade recalls
         *  are (DirectoryController::forward's asymmetry). */
        forwarding_asymmetry,
    };

    Kind kind{};
    Module module{};
    std::string detail;

    static const char *toString(Kind k);
};

/**
 * One disagreement between the extracted table and the declared
 * `proto::ProtocolTable`. The declared table is the source of truth
 * the controllers dispatch through; the extractor re-derives the
 * table from observed behaviour, so any diff means a handler body
 * does something its row does not declare (or the exploration
 * reached a row declared unreachable).
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
    Module module{};
    std::string detail;

    static const char *toString(Kind k);
};

/** The extracted transition table. */
class TransitionTable
{
  public:
    /** Fold @p hits identical stepper samples into the table. */
    void record(const Sample &s, std::uint64_t hits = 1);

    const std::map<TableKey, TableEntry> &entries() const
    {
        return entries_;
    }

    /** Distinct states observed per module (pre or post). */
    std::set<std::uint8_t> observedStates(Module m) const;

    /**
     * Rows with more than one outcome whose context does not carry
     * the "q" backlog tag (those aggregate over queued requests and
     * are legitimately multi-outcome).
     */
    std::vector<const TableKey *> nondeterministicKeys() const;

    /** Run the static lint (see file comment). */
    std::vector<LintFinding> lint() const;

    /**
     * Diff every extracted entry against @p declared: re-derive the
     * guard from the entry's context tag (guardContext and
     * guardFromContext are inverses), look the row up the way the
     * controllers dispatch, and compare the declared (next, emits)
     * against every observed outcome. Completing rows serviced from
     * the "q" backlog are exempt from the outcome comparison -- the
     * directory re-serves the queued request inside the same atomic
     * step, so the sample's post state and emissions include the
     * follow-on transaction by design.
     */
    std::vector<ConsistencyFinding>
    diffAgainstDeclared(const proto::ProtocolTable &declared) const;

    /** Human-readable table rendering (one line per key/outcome). */
    std::string format() const;

  private:
    std::map<TableKey, TableEntry> entries_;
};

} // namespace cosmos::model

#endif // COSMOS_MODEL_TABLE_HH
