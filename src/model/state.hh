/**
 * @file
 * Global protocol states for the exhaustive model checker.
 *
 * A GlobalState is the Murphi-style cross product of every
 * controller's protocol state plus the in-flight message pool, held
 * in fixed-capacity arrays so states copy, hash, and compare without
 * touching the heap. The model keeps the pool itself because in the
 * simulator an in-flight message lives only inside the type-erased
 * callable stored in an event-queue slot, which cannot be inspected
 * or copied. The pool is a per-(src, dst)-channel FIFO --
 * the real network's delivery contract -- and the `reorder` knob of
 * ModelConfig lets the checker additionally explore bounded
 * overtaking (delivering the i-th queued message of a channel for
 * i <= K), i.e. hypothetical networks weaker than the simulator's.
 *
 * States are serialized to a canonical byte encoding for the visited
 * set. Canonicalization quotients out node symmetry: nodes that are
 * not the home of any modeled block are interchangeable (the
 * processors are identical and the round-robin home map pins only
 * the first numBlocks nodes), so the encoder takes the
 * lexicographically smallest encoding over all permutations of the
 * non-home nodes.
 */

#ifndef COSMOS_MODEL_STATE_HH
#define COSMOS_MODEL_STATE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "proto/cache_controller.hh"
#include "proto/directory_controller.hh"
#include "proto/messages.hh"

namespace cosmos::model
{

/** Hard bounds keeping GlobalState fixed-size. */
constexpr NodeId max_nodes = 4;
constexpr unsigned max_blocks = 2;
/** Per-channel / per-entry queue capacity (generous: a node has at
 *  most one request outstanding, so real occupancy stays small). */
constexpr unsigned max_queue = 8;

/** Sentinel for "no owner" in the packed owner byte. */
constexpr std::uint8_t no_node = 0xFF;

/** Largest planted lost-invalidation period: GlobalState counts its
 *  residue in one byte per node. */
constexpr unsigned max_ignore_inval_every = 256;

/** Configuration of one model-checking run. */
struct ModelConfig
{
    NodeId numNodes = 2;
    unsigned numBlocks = 1;

    /** Network overtaking bound K: a delivery may skip up to K
     *  earlier messages on its channel. 0 = the simulator's strict
     *  per-channel FIFO contract. */
    unsigned reorder = 0;

    OwnerReadPolicy policy = OwnerReadPolicy::half_migratory;
    bool forwarding = false;

    /** Explore the pre-fwd_ack forwarding protocol (the negative
     *  oracle; the checker must find the three-hop race). */
    bool legacyForwarding = false;

    /** Planted lost-invalidation bug (MachineConfig::fault); at most
     *  max_ignore_inval_every. */
    unsigned ignoreInvalEvery = 0;

    /** Bounds-check; calls cosmos_fatal on bad values. */
    void validate() const;

    /** The equivalent simulator configuration. */
    MachineConfig machineConfig() const;

    /** Byte address of modeled block @p b (one block per page, so
     *  homes follow the round-robin page map: home(b) = b % N). */
    Addr blockAddr(unsigned b) const;

    /** Home node of modeled block @p b. */
    NodeId home(unsigned b) const
    {
        return static_cast<NodeId>(b % numNodes);
    }

    /** First node that is not the home of any modeled block; nodes
     *  [firstSymmetricNode(), numNodes) are interchangeable. */
    NodeId firstSymmetricNode() const
    {
        return static_cast<NodeId>(
            numBlocks < numNodes ? numBlocks : numNodes);
    }
};

/** One in-flight coherence message, packed. */
struct CompactMsg
{
    proto::MsgType type{};
    std::uint8_t src = 0;
    std::uint8_t dst = 0;
    std::uint8_t requester = 0;
    std::uint8_t blockIdx = 0;
    bool forwarded = false;
    bool wantWritable = false;

    bool operator==(const CompactMsg &) const = default;
};

/** Fixed-capacity FIFO of in-flight or queued messages. */
struct MsgQueue
{
    std::uint8_t count = 0;
    std::array<CompactMsg, max_queue> items{};

    void
    push(const CompactMsg &m)
    {
        cosmos_assert(count < max_queue, "model message queue overflow");
        items[count++] = m;
    }

    /** Remove and return the message at position @p i (FIFO head is
     *  0), shifting later messages up. */
    CompactMsg
    takeAt(unsigned i)
    {
        cosmos_assert(i < count, "takeAt past queue end");
        CompactMsg m = items[i];
        for (unsigned j = i + 1; j < count; ++j)
            items[j - 1] = items[j];
        --count;
        return m;
    }

    bool
    operator==(const MsgQueue &o) const
    {
        if (count != o.count)
            return false;
        for (unsigned i = 0; i < count; ++i)
            if (!(items[i] == o.items[i]))
                return false;
        return true;
    }
};

/** One directory entry, packed (mirrors proto::DirEntry). */
struct DirEntryState
{
    proto::DirState state = proto::DirState::idle;
    std::uint8_t sharers = 0;
    std::uint8_t owner = no_node;
    bool busy = false;
    std::uint8_t pendingAcks = 0;
    bool genuineUpgrade = false;
    bool recall = false;
    bool fwdData = false;
    bool fwdAckPending = false;
    CompactMsg current{}; ///< meaningful only while busy && !recall
    MsgQueue waiting{};

    bool operator==(const DirEntryState &) const = default;
};

/** The whole machine + network at one model-checking step boundary. */
struct GlobalState
{
    /** Cache line state per (node, block); LineState::invalid == 0,
     *  so zero-initialization is the all-invalid initial state. */
    std::array<std::array<std::uint8_t, max_blocks>, max_nodes> line{};
    /** Fault-injection counter residue per node. */
    std::array<std::uint8_t, max_nodes> invalResidue{};
    /** Directory entry per modeled block (lives at home(b)). */
    std::array<DirEntryState, max_blocks> dir{};
    /** In-flight messages per (src, dst) channel, src != dst. */
    std::array<MsgQueue, max_nodes * max_nodes> chan{};

    MsgQueue &
    channel(unsigned src, unsigned dst)
    {
        return chan[src * max_nodes + dst];
    }

    const MsgQueue &
    channel(unsigned src, unsigned dst) const
    {
        return chan[src * max_nodes + dst];
    }
};

/** One edge of the reachability graph. */
struct Action
{
    enum class Kind : std::uint8_t
    {
        issue_read,  ///< processor load (miss-causing only)
        issue_write, ///< processor store (miss/upgrade-causing only)
        deliver,     ///< deliver an in-flight message
    };

    Kind kind{};
    std::uint8_t node = 0;     ///< issuing node (issue_*)
    std::uint8_t blockIdx = 0; ///< issued block (issue_*)
    std::uint8_t src = 0;      ///< channel (deliver)
    std::uint8_t dst = 0;
    std::uint8_t depth = 0; ///< position in the channel (deliver)
    CompactMsg msg{};       ///< the delivered message (deliver)

    /** "node 1: R block 0" / "deliver get_ro_request 1->0 block 0". */
    std::string format() const;
};

/**
 * All enabled actions of @p s: every miss-causing processor access
 * on an idle cache (the blocking single-outstanding-access model)
 * and every deliverable in-flight message within the reorder bound.
 * Cache hits are skipped -- they move no protocol state, so they are
 * pure stutter steps.
 */
void enumerateActions(const GlobalState &s, const ModelConfig &mc,
                      std::vector<Action> &out);

/** True when nothing is in flight and no controller is mid-miss or
 *  mid-transaction. */
bool isQuiescent(const GlobalState &s, const ModelConfig &mc);

/** Upper bound on encodeState's output at the max_* capacities. */
constexpr std::size_t max_encoding_bytes =
    max_nodes * (max_blocks + 1) +
    max_blocks * (9 + 7 + 1 + 7 * max_queue) +
    max_nodes * max_nodes * (1 + 7 * max_queue);

/** Serialize exactly the fields live under @p mc (deterministic). */
void encodeState(const GlobalState &s, const ModelConfig &mc,
                 std::vector<std::uint8_t> &out);

/** As above, into @p out (room for max_encoding_bytes); returns the
 *  encoded length. */
std::size_t encodeState(const GlobalState &s, const ModelConfig &mc,
                        std::uint8_t *out);

/** Inverse of encodeState. */
void decodeState(const std::uint8_t *enc, std::size_t len,
                 const ModelConfig &mc, GlobalState &out);

/** Remap every node id in @p s through @p perm (an array of
 *  mc.numNodes entries that must fix the home nodes). */
GlobalState permuteNodes(const GlobalState &s, const ModelConfig &mc,
                         const std::array<std::uint8_t, max_nodes> &perm);

/**
 * Canonical encoding of @p s: the lexicographically smallest
 * encodeState() result over all permutations of the symmetric
 * (non-home) nodes. Node-permuted states therefore canonicalize to
 * byte-identical encodings.
 */
void canonicalEncoding(const GlobalState &s, const ModelConfig &mc,
                       std::vector<std::uint8_t> &out);

/** As above, additionally reporting the minimizing permutation in
 *  @p bestPerm (perm[original node] = canonical node) -- the explorer
 *  uses it to translate canonical-space actions back to a concrete
 *  state when reconstructing counterexample schedules. */
void canonicalEncoding(const GlobalState &s, const ModelConfig &mc,
                       std::vector<std::uint8_t> &out,
                       std::array<std::uint8_t, max_nodes> *bestPerm);

} // namespace cosmos::model

#endif // COSMOS_MODEL_STATE_HH
