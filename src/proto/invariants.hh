/**
 * @file
 * The coherence rule, stated once.
 *
 * Two properties make the protocol safe: single writer / multiple
 * readers (SWMR), and agreement between a block's home directory
 * entry and the caches' line states. brokenRules() decides both for
 * one block from a BlockView. The quiescent sweep (checkCoherence),
 * the per-delivery invariant engine (check::InvariantEngine) and the
 * model checker (model::checkState) each build that view from their
 * own state and ask it, so all three name the same breach with the
 * same culprit nodes and the same words.
 *
 * SWMR holds at every instant: the protocol grants exclusivity only
 * after all invalidations ack. Agreement holds only at rest, so a
 * block is excused from it for exactly two reasons: some cache has a
 * miss outstanding on it, or its home entry is mid-transaction.
 */

#ifndef COSMOS_PROTO_INVARIANTS_HH
#define COSMOS_PROTO_INVARIANTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "proto/machine.hh"

namespace cosmos::proto
{

/** One block as the caches and its home directory see it. */
struct BlockView
{
    /** Nodes holding the block read_only. */
    std::uint64_t readers = 0;
    /** Nodes holding the block read_write. */
    std::uint64_t writers = 0;
    /** Some cache has a miss outstanding on the block. */
    bool missOutstanding = false;
    /** The home entry is mid-transaction. */
    bool homeBusy = false;
    DirState homeState = DirState::idle;
    std::uint64_t sharers = 0;
    NodeId owner = invalid_node;
    /** Caches drop read_only copies without telling home (replacement
     *  mode), so the sharer list may name more nodes than hold the
     *  block. */
    bool silentDrops = false;

    /** Fold cache @p node's line state into the view. */
    void addLine(NodeId node, LineState st);
};

/** The rules a block can break, in the order they are checked. The
 *  values match check::ViolationKind's first three. */
enum class CoherenceRule : std::uint8_t
{
    multiple_writers,
    writer_and_readers,
    directory_mismatch,
};

/** One broken rule: the culprit nodes, ascending, and what is wrong. */
struct Breach
{
    CoherenceRule rule{};
    std::vector<NodeId> nodes;
    std::string detail;
};

/**
 * Every rule @p v breaks, in CoherenceRule order: multiple writers, a
 * writer beside readers, then a directory mismatch, which is checked
 * only when no miss is outstanding and the home is not busy.
 * Allocates only to report.
 */
std::vector<Breach> brokenRules(const BlockView &v);

/** @p block as @p machine's caches and its home see it now. While a
 *  miss is outstanding the home is left unread (idle), because the
 *  rule does not look at it then. */
BlockView blockView(const Machine &machine, Addr block);

/** Every block a cache or a directory of @p machine knows, ascending. */
std::vector<Addr> knownBlocks(const Machine &machine);

/** The nodes of @p mask, ascending. */
std::vector<NodeId> nodesOf(std::uint64_t mask);

/**
 * Apply the rule to every block of knownBlocks(@p machine).
 *
 * @return one "block 0x<addr>: <detail>" line per broken rule; empty
 *         means the machine state is coherent.
 */
std::vector<std::string> checkCoherence(const Machine &machine);

} // namespace cosmos::proto

#endif // COSMOS_PROTO_INVARIANTS_HH
