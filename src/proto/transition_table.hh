/**
 * @file
 * The declarative protocol transition table: the source of truth the
 * cache and directory controllers dispatch through.
 *
 * Each TransitionRow binds `(role, state, input, guard)` to a named
 * action, a declared next state, and the declared emission signature.
 * The controllers in cache_controller.cc / directory_controller.cc do
 * not decide *what* to do -- they look the row up here and run the
 * action it names; the handler bodies are reduced to those named
 * action functions. The model checker counts how often each row
 * fires and checks every observed transition against its row.
 *
 * Rows carry provenance (__LINE__ of the declaring entry in
 * transition_table.cc) so lint findings and model-checker
 * counterexamples can point at the declaration, plus the static
 * annotations `cosmos lint` (src/lint) needs:
 *
 *   unreachable   the (state, input) pair cannot occur in a run; the
 *                 model checker's reached set cross-validates this.
 *   completes     the row finishes a transaction (cache miss done, or
 *                 directory entry released) -- outstanding responses
 *                 of that transaction cannot still be in flight after
 *                 it, which the channel-discipline pass relies on.
 *   delegatesData the row closes a request whose data response was
 *                 sent by a third party (three-hop forwarding), so
 *                 message-conservation is satisfied without this row
 *                 emitting the response itself.
 *   clears        input-type bitmask of declared serialization
 *                 assumptions: inputs that provably cannot be pending
 *                 once this row fires, exempting them from the
 *                 channel-discipline check. Cross-validated
 *                 dynamically: if the assumption were wrong the model
 *                 checker would reach the (next-state, input) pair and
 *                 its consistency check would flag it.
 *
 * Guards are small orthogonal predicates over module-local hidden
 * state (directory ack counts, FIFO backlog, the forwarded mark on a
 * message). The directory's predicates read its own DirEntry, which
 * is declared here beside them. The controllers and the model stepper
 * derive guards through the same functions (cacheMsgGuard,
 * dirMsgGuard), so a model sample resolves to the row its dispatch
 * matched.
 */

#ifndef COSMOS_PROTO_TRANSITION_TABLE_HH
#define COSMOS_PROTO_TRANSITION_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "proto/messages.hh"

namespace cosmos::proto
{

/** Quiescent directory-entry states (paper §2.1). */
enum class DirState : std::uint8_t
{
    idle,      ///< no cached copies
    shared,    ///< >= 1 read-only copies
    exclusive, ///< exactly one writable copy
};

const char *toString(DirState s);

/**
 * One directory entry: the quiescent state of §2.1 (idle, shared by a
 * sharer set, or exclusive at an owner) plus the transaction in
 * flight (busy flag, the request being served, outstanding acks,
 * queued requests). The directory controller keeps one per block;
 * the guard predicates below, the coherence rule and the model
 * stepper read it as it is.
 */
struct DirEntry
{
    DirState state = DirState::idle;
    std::uint64_t sharers = 0;
    NodeId owner = invalid_node;

    bool busy = false;
    /// requests queued behind the busy entry, oldest first
    std::vector<Msg> waiting;
    Msg current{};
    unsigned pendingAcks = 0;
    /// current is an upgrade from a live sharer (answer with
    /// upgrade_response rather than get_rw_response).
    bool genuineUpgrade = false;
    /// in-flight transaction is a voluntary owner recall with no
    /// requester to answer.
    bool recall = false;
    /// the in-flight recall was forwarded: the former owner
    /// answers the requester directly and the home only settles
    /// state on the revision message.
    bool fwdData = false;
    /// still awaiting the requester's fwd_ack; the entry must not
    /// finish() until it arrives.
    bool fwdAckPending = false;
};

/**
 * Abstract directory phase a table row keys on. Quiescent values
 * (idle/shared/exclusive) coincide numerically with DirState;
 * busy entries are split by what the transaction waits for. The
 * model checker's directory samples use it as their state.
 */
enum class DirPhase : std::uint8_t
{
    idle,
    shared,
    exclusive,
    /** Busy on a read miss to an exclusive block (owner recall). */
    busy_read,
    /** Busy on a write/upgrade (invalidation sweep or owner recall). */
    busy_write,
    /** Busy on a voluntary recall (no requester to answer). */
    busy_recall,
};

constexpr unsigned num_cache_states = 6;
constexpr unsigned num_dir_phases = 6;

const char *toString(DirPhase p);

/** Table inputs: the 13 message types plus the two processor ops. */
constexpr std::uint8_t input_proc_read = num_msg_types;
constexpr std::uint8_t input_proc_write = num_msg_types + 1;
constexpr unsigned num_table_inputs = num_msg_types + 2;

/** Printable input name ("get_ro_request", "proc_read", ...). */
const char *tableInputName(std::uint8_t input);

/** Guard predicates, one bit each. */
using GuardBits = std::uint32_t;
constexpr GuardBits guard_none = 0;
/** Directory entry busy: the request joins the FIFO backlog. */
constexpr GuardBits guard_queued = 1u << 0;
/** upgrade_request source is (is not) in the sharer set. */
constexpr GuardBits guard_sharer = 1u << 1;
constexpr GuardBits guard_nonsharer = 1u << 2;
/** Shared-state write: sharers other than the requester do (not) exist. */
constexpr GuardBits guard_others = 1u << 3;
constexpr GuardBits guard_solo = 1u << 4;
/** inval_ro_response: more acks outstanding / this is the last one. */
constexpr GuardBits guard_more_acks = 1u << 5;
constexpr GuardBits guard_last_ack = 1u << 6;
/** Final ack answers a genuine upgrade (upgrade_response reply). */
constexpr GuardBits guard_upg = 1u << 7;
/** Message carries the forwarded mark / entry has a forward in flight. */
constexpr GuardBits guard_fwd = 1u << 8;
/** Forwarded recall: requester wants a writable (rw) or shared (ro) copy. */
constexpr GuardBits guard_rw = 1u << 9;
constexpr GuardBits guard_ro = 1u << 10;
/** Forwarded settle: the requester's fwd_ack has not arrived yet. */
constexpr GuardBits guard_await_ack = 1u << 11;
/** fwd_ack arrived before (after) the owner's revision message. */
constexpr GuardBits guard_await_data = 1u << 12;
constexpr GuardBits guard_data_done = 1u << 13;
/** The directory backlog is non-empty when the transaction finishes. */
constexpr GuardBits guard_q = 1u << 14;

/** Render guard bits as the canonical '+'-joined context string. */
std::string guardContext(GuardBits g);

/** Guard bits a cache derives from an incoming message (the forwarded
 *  mark and, for recalls, the wanted copy kind). */
GuardBits cacheMsgGuard(const Msg &m);

/** Guard bits the directory derives for message @p t from @p src
 *  against entry @p e. */
GuardBits dirMsgGuard(const DirEntry &e, MsgType t, NodeId src);

/** Guard bits of request @p t from @p src served against @p e's
 *  quiescent state: dirMsgGuard of a request with `busy` unread. */
GuardBits dirRequestGuard(const DirEntry &e, MsgType t, NodeId src);

/** Abstract phase of directory entry @p e. */
DirPhase dirPhaseOf(const DirEntry &e);

/**
 * Which channel (sender class) a row's input arrives on. The
 * protocol's FIFO assumption holds per (src, dst) pair, so the
 * channel-discipline lint only trusts ordering between rows whose
 * inputs share a single concrete channel.
 */
enum class Via : std::uint8_t
{
    /** Processor-initiated, not a network channel. */
    proc,
    /** From the block's home directory. */
    home,
    /** From the current exclusive owner (recall responses, forwarded
     *  data). */
    owner,
    /** From the requester of the in-flight transaction (fwd_ack). */
    requester,
    /** From any member of the sharer set (invalidation acks). */
    sharer,
    /** From any cache (directory-side requests). */
    any_cache,
};

const char *toString(Via v);

/** True when the via names one concrete FIFO channel (ordering between
 *  two such inputs is guaranteed); false for sharer/any_cache fans. */
bool singleChannel(Via v);

/** Named handler fragments the rows reference. The controllers own the
 *  implementations; the enum is the table's vocabulary. */
enum class ActionId : std::uint8_t
{
    /** Marker for declared-unreachable rows; never executed. */
    none,

    // Cache actions.
    cache_load_hit,
    cache_store_hit,
    cache_begin_read_miss,
    cache_begin_write_miss,
    cache_begin_upgrade,
    cache_accept_ro,
    cache_accept_rw,
    cache_accept_upgrade,
    cache_invalidate_shared,
    cache_demote_upgrade,
    cache_ack_stale_inval,
    cache_surrender_exclusive,
    cache_downgrade_line,

    // Directory actions.
    dir_queue_request,
    dir_serve_read,
    dir_serve_write,
    dir_serve_upgrade,
    dir_promote_upgrade,
    dir_inval_ack,
    dir_revision,
    dir_downgrade_ack,
    dir_fwd_ack,
};

const char *toString(ActionId a);

/** One declared transition: (role, state, input, guard) -> action. */
struct TransitionRow
{
    Role role = Role::cache;
    std::uint8_t state = 0;
    std::uint8_t input = 0;
    GuardBits guard = guard_none;
    ActionId action = ActionId::none;
    std::uint8_t next = 0;
    /** Declared emission signature (sorted, deduplicated; multiplicity
     *  abstracted away, like the model checker's emission masks). */
    std::vector<MsgType> emits;
    Via via = Via::home;
    /** The pair cannot occur; dispatch() panics if it does. */
    bool unreachable = false;
    /** The row also matches with guard_q set (backlog service makes
     *  next state and emissions dynamic; the model checker's
     *  consistency check skips completing rows' outcome compare for
     *  such samples). */
    bool allowQ = false;
    /** Finishes a transaction; see file header. */
    bool completes = false;
    /** Data response delivered by a third party; see file header. */
    bool delegatesData = false;
    /** Bitmask (1 << input) of declared-impossible pending inputs. */
    std::uint16_t clears = 0;
    /** __LINE__ of the declaring entry in transition_table.cc. */
    int line = 0;

    /** Provenance, "src/proto/transition_table.cc:NN". */
    std::string where() const;

    /** "cache read_only x inval_ro_request -> invalid ! inval_ro_response" */
    std::string format() const;
};

/** "cache read_only x inval_ro_request [fwd]": the key part of a
 *  row's format(), for any (role, state, input, guard). */
std::string formatRowKey(Role role, std::uint8_t state,
                         std::uint8_t input, GuardBits guard);

/** "-> invalid ! inval_ro_response": the outcome part of a live
 *  row's format(). */
std::string formatRowOutcome(Role role, std::uint8_t next,
                             const std::vector<MsgType> &emits);

/**
 * The full declared table for one machine configuration. Rows are
 * config-gated at build time (forwarding / legacy / owner-read policy
 * / capacity), so the table describes exactly the protocol the
 * controllers run under that configuration.
 */
class ProtocolTable
{
public:
    /** Build the declared Stache table for @p cfg. */
    static ProtocolTable build(const MachineConfig &cfg);

    const std::vector<TransitionRow> &rows() const { return rows_; }

    /** Mutable row access for lint's planted-mutation harness; call
     *  reindex() after editing. */
    std::vector<TransitionRow> &mutableRows() { return rows_; }

    /** Rebuild the (role, state, input) dispatch index. */
    void reindex();

    /**
     * Look up the row matching a concrete dispatch. Returns the
     * unreachable marker if the pair is declared unreachable, or
     * nullptr when nothing matches (a table gap -- dispatch() turns
     * both into a panic).
     */
    const TransitionRow *find(Role role, std::uint8_t state,
                              std::uint8_t input, GuardBits guard) const;

    /** find(), but panics (RecoverableError under a FailureTrap) when
     *  no live row matches -- the controllers' dispatch entry point. */
    const TransitionRow &dispatch(Role role, std::uint8_t state,
                                  std::uint8_t input, GuardBits guard,
                                  NodeId node) const;

    const MachineConfig &config() const { return cfg_; }

    /** State name for a role ("wait_ro" / "busy_write" ...). */
    static const char *stateName(Role role, std::uint8_t state);

private:
    ProtocolTable() = default;

    MachineConfig cfg_{};
    std::vector<TransitionRow> rows_;
    /** Bucket per (role, state, input) holding row indices. */
    std::vector<std::vector<std::uint16_t>> index_;
};

} // namespace cosmos::proto

#endif // COSMOS_PROTO_TRANSITION_TABLE_HH
