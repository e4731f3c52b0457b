/**
 * @file
 * Per-node directory controller (full-map, write-invalidate).
 *
 * Each node is the home of the pages Stache allocated to it
 * round-robin (§5.1) and keeps one directory entry per block of those
 * pages. An entry records whether the block is idle, shared by a set
 * of caches, or exclusive in one cache (§2.1). Requests for a block
 * whose entry is mid-transaction are queued and served in arrival
 * order, which serializes racing requests exactly like Stache's
 * software handlers.
 *
 * The half-migratory optimization (§5.1) is implemented here: on a
 * read miss to an exclusive block the directory asks the owner to
 * *invalidate* its copy (inval_rw_request). The DASH-style alternative
 * (downgrade_request, owner keeps a shared copy) is selectable via
 * MachineConfig::ownerReadPolicy for the §6.1 ablation.
 */

#ifndef COSMOS_PROTO_DIRECTORY_CONTROLLER_HH
#define COSMOS_PROTO_DIRECTORY_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/addr.hh"
#include "common/config.hh"
#include "common/flat_map.hh"
#include "common/types.hh"
#include "proto/messages.hh"
#include "proto/transition_table.hh"
#include "sim/event_queue.hh"

namespace cosmos::proto
{

/**
 * Hook through which a predictor-driven accelerator (§4) steers the
 * directory's speculative choices. The directory consults the hook at
 * well-defined decision points; every action it can request moves the
 * protocol between legal states, so mis-speculation needs no rollback
 * (§4.3's first recovery class -- the cost is extra misses/messages).
 */
class DirectorySpeculation
{
  public:
    virtual ~DirectorySpeculation() = default;

    /**
     * A get_ro_request from @p requester is about to be answered
     * while no other cache would keep a copy. Return true to grant
     * an *exclusive* copy instead of a shared one (the §4.1
     * read-modify-write action).
     */
    virtual bool grantExclusiveOnRead(Addr block, NodeId requester) = 0;

    /**
     * A forwardable recall of @p block held exclusive at @p owner is
     * about to be sent on behalf of @p requester. The directory asks
     * only when MachineConfig::forwardingPredicted is set. Return
     * true to forward (owner answers the requester directly, three
     * hops), false to fall back to the four-hop home reply. Both
     * shapes are legal protocol, so a wrong answer costs only latency
     * (§4.3's first recovery class).
     */
    virtual bool
    forwardOwnerTransfer(Addr block, NodeId owner, NodeId requester,
                         bool wantWritable)
    {
        (void)block;
        (void)owner;
        (void)requester;
        (void)wantWritable;
        return true;
    }
};

/** Counters a directory keeps for reporting and tests. */
struct DirectoryStats
{
    std::uint64_t requests = 0;
    /** Requests that arrived mid-transaction and had to wait behind
     *  the busy entry -- the protocol's retry pressure (this
     *  directory queues instead of NACKing). */
    std::uint64_t queued = 0;
    std::uint64_t invalsSent = 0;
    std::uint64_t downgradesSent = 0;
    std::uint64_t upgradePromotions = 0;
    std::uint64_t exclusiveGrants = 0; ///< speculative RMW grants
    std::uint64_t recalls = 0;         ///< voluntary owner recalls
    /** Recalls sent as three-hop forwards (owner answers the
     *  requester directly). */
    std::uint64_t forwardsSent = 0;
    /** Forward-eligible recalls the speculation hook demoted to
     *  four-hop home replies (forwardingPredicted gating). */
    std::uint64_t forwardsSuppressed = 0;
    /** fwd_ack messages received closing three-hop transfers. */
    std::uint64_t fwdAcks = 0;
    /** Entry-state transitions, counted by the state entered
     *  (index = DirState). */
    std::array<std::uint64_t, 3> stateEntries{};
};

/**
 * One node's directory slice.
 *
 * The Machine routes every directory-role message for blocks homed at
 * this node into handleMessage().
 */
class DirectoryController
{
  public:
    using SendFn = std::function<void(const Msg &)>;

    /** @p table is the declared protocol table the controller
     *  dispatches through; it must outlive the controller and match
     *  @p cfg (Machine and the model stepper each own one). */
    DirectoryController(NodeId node, const AddrMap &amap,
                        const MachineConfig &cfg,
                        const ProtocolTable &table, sim::EventQueue &eq,
                        SendFn send);

    /** Deliver a protocol message addressed to this directory. */
    void handleMessage(const Msg &m);

    /** Install (or clear) the speculation hook; not owned. */
    void setSpeculation(DirectorySpeculation *spec)
    {
        speculation_ = spec;
    }

    /**
     * Voluntarily recall the exclusive owner's copy of @p block so
     * the data sits at home before a predicted remote read arrives
     * (producer-initiated hand-off, §4.1). A no-op unless the block
     * is exclusive and quiescent.
     *
     * @return true if a recall transaction was started.
     */
    bool voluntaryRecall(Addr block);

    /** State query for tests and invariant checks. */
    DirState state(Addr block) const;

    /** Sharer bitmask (valid in shared state). */
    std::uint64_t sharers(Addr block) const;

    /** Owner (valid in exclusive state). */
    NodeId owner(Addr block) const;

    /** True if a transaction is in flight for @p block. */
    bool busy(Addr block) const;

    /**
     * The entry of @p block, or nullptr when the directory has none
     * (an absent entry reads as idle). Like entry()'s reference, the
     * pointer is valid only until the next insert into entries_.
     */
    const DirEntry *findEntry(Addr block) const
    {
        return entries_.find(block);
    }

    NodeId node() const { return node_; }
    const DirectoryStats &stats() const { return stats_; }

    /** Enumerate all known entries in ascending block order, so a
     *  report built from the walk does not depend on how entries are
     *  stored (invariant checking support). */
    void forEachEntry(
        const std::function<void(Addr, const DirEntry &)> &fn) const;

    /**
     * Replace @p block's entry with @p e (stats untouched). An idle
     * entry with no transaction in flight is dropped instead, since
     * an absent entry reads the same.
     */
    void restoreEntry(Addr block, const DirEntry &e);

  private:
    /**
     * The entry of @p block, created idle on first use. entries_ is a
     * FlatMap, which moves its values when it inserts, so the
     * reference is valid only until the next insert into entries_.
     * No action inserts another block's entry while it holds one.
     */
    DirEntry &entry(Addr block);

    // Named action fragments the transition table's rows reference
    // (ActionId::dir_*). handleMessage() looks the row up and runs
    // the action it names; stray-message asserts stay inside the
    // bodies so trapped reorder-mode failures keep their messages.
    /** inval_ro_response bookkeeping; answers the writer on the last
     *  ack. */
    void onInvalAck(DirEntry &e, const Msg &m);
    /** inval_rw_response: settle a recall/write/forwarded transfer. */
    void onRevision(DirEntry &e, const Msg &m);
    /** downgrade_response: owner kept a shared copy (DASH policy). */
    void onDowngradeAck(DirEntry &e, const Msg &m);
    /** fwd_ack from the requester closing a three-hop transfer. */
    void onFwdAck(DirEntry &e, const Msg &m);

    /** Transition @p e, keeping the per-state transition census. */
    void enter(DirEntry &e, DirState st);
    void serve(const Msg &m);
    void serveRead(DirEntry &e, const Msg &m);
    void serveWrite(DirEntry &e, const Msg &m, bool genuine_upgrade);
    void finish(Addr block);
    /**
     * Send a response and complete the block's transaction. The
     * entry stays busy until the response has actually left, so a
     * queued request's invalidations can never overtake it on the
     * directory-to-cache channel.
     */
    void respondAndFinish(MsgType t, NodeId dst, Addr block,
                          bool from_memory);
    void forward(MsgType t, NodeId dst, Addr block, NodeId requester,
                 bool want_writable);

    NodeId node_;
    const AddrMap &amap_;
    const MachineConfig &cfg_;
    const ProtocolTable &table_;
    sim::EventQueue &eq_;
    SendFn sendFn_;

    FlatMap<Addr, DirEntry> entries_;
    DirectoryStats stats_;
    DirectorySpeculation *speculation_ = nullptr;
};

} // namespace cosmos::proto

#endif // COSMOS_PROTO_DIRECTORY_CONTROLLER_HH
