/**
 * @file
 * Per-node cache controller of the Stache-like directory protocol.
 *
 * A cache block is in one of three quiescent states (invalid,
 * read-only, read-write -- paper §2.1) or one of three transient
 * states while a miss is outstanding. The attached processor is a
 * blocking, single-outstanding-access processor (the WWT II target
 * model), so at most one miss is in flight per cache at a time;
 * external invalidations and downgrades may still arrive for any
 * block at any time.
 *
 * Stache never replaces remote cache pages (§5.1), so lines are only
 * removed by invalidation -- a property the predictor relies on for
 * persistent history.
 */

#ifndef COSMOS_PROTO_CACHE_CONTROLLER_HH
#define COSMOS_PROTO_CACHE_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <functional>

#include "common/addr.hh"
#include "common/config.hh"
#include "common/flat_map.hh"
#include "common/types.hh"
#include "proto/messages.hh"
#include "proto/transition_table.hh"
#include "sim/event_queue.hh"

namespace cosmos::proto
{

/** Cache-line states (quiescent + transient). */
enum class LineState : std::uint8_t
{
    invalid,
    read_only,
    read_write,
    wait_ro,  ///< get_ro_request outstanding
    wait_rw,  ///< get_rw_request outstanding
    wait_upg, ///< upgrade_request outstanding
};

const char *toString(LineState s);

/** Counters a cache keeps for reporting and tests. */
struct CacheStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t loadHits = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t invalsReceived = 0;
    std::uint64_t downgradesReceived = 0;
    std::uint64_t evictions = 0;      ///< silent read-only drops
    std::uint64_t staleInvals = 0;    ///< invals for dropped lines
    /** Line-state transitions, counted by the state entered
     *  (index = LineState). Entries into transient states measure
     *  miss traffic; entries into `invalid` are invalidations and
     *  evictions. */
    std::array<std::uint64_t, 6> stateEntries{};
};

/**
 * One node's cache controller.
 *
 * The owning Machine supplies the outbound message path and the event
 * queue; the Processor supplies accesses via access().
 */
class CacheController
{
  public:
    using SendFn = std::function<void(const Msg &)>;
    using DoneFn = std::function<void()>;

    /** @p table is the declared protocol table the controller
     *  dispatches through; it must outlive the controller and match
     *  @p cfg (Machine and the model stepper each own one). */
    CacheController(NodeId node, const AddrMap &amap,
                    const MachineConfig &cfg,
                    const ProtocolTable &table, sim::EventQueue &eq,
                    SendFn send);

    /**
     * Issue a processor load or store to byte address @p a.
     *
     * On a hit @p done fires after the cache hit latency; on a miss
     * it fires when the protocol response arrives. Misses to
     * *different* blocks may overlap (non-blocking cache); issuing
     * an access to a block with a miss already outstanding is the
     * caller's error -- processors stall on transient blocks.
     */
    void access(Addr a, bool write, DoneFn done);

    /** True if a miss is outstanding for the block of @p a. */
    bool pendingOn(Addr a) const;

    /** Deliver a protocol message addressed to this cache. */
    void handleMessage(const Msg &m);

    /** Quiescent-state query (transient states report themselves). */
    LineState state(Addr a) const;

    /** True if any miss is outstanding. */
    bool busy() const { return !pending_.empty(); }

    /** Number of outstanding misses. */
    std::size_t outstanding() const { return pending_.size(); }

    NodeId node() const { return node_; }
    const CacheStats &stats() const { return stats_; }

    /**
     * Enumerate blocks in a given state (invariant checking support).
     * The order is unspecified; callers that report must order the
     * blocks themselves.
     */
    void forEachLine(
        const std::function<void(Addr, LineState)> &fn) const;

    /**
     * Put the line of @p block in state @p st, keeping the valid-line
     * census (stats untouched). A transient (wait_*) line gets an
     * MSHR that wakes nothing -- the model checker's stepper has no
     * processor to wake, it derives progress from the line states
     * themselves -- and any other state drops the block's MSHR.
     */
    void restoreLine(Addr block, LineState st);

    /** The lost-invalidation counter modulo
     *  FaultInjection::ignoreInvalEvery (0 when no fault is
     *  planted): all a restore needs to resume the fault's rhythm. */
    unsigned invalResidue() const;
    void setInvalResidue(unsigned r) { ignoredInvalTick_ = r; }

  private:
    // Named action fragments the transition table's rows reference
    // (ActionId::cache_*). handleMessage()/access() look the row up
    // and run the action it names; the actions never decide *whether*
    // they apply -- the table did.
    /** Complete an outstanding miss with the arrived data; sends the
     *  fwd_ack receipt when the data was forwarded three-hop. */
    void acceptData(const Msg &m, LineState final_state);
    /** read_only x inval_ro_request (fault injection lives here). */
    void invalidateShared(const Msg &m);
    /** wait_upg x inval_ro_request: drop to wait_rw. */
    void demoteUpgrade(const Msg &m);
    /** Stale invalidation for a silently dropped line: just ack. */
    void ackStaleInval(const Msg &m);
    /** read_write x inval_rw_request (incl. forwarded data reply). */
    void surrenderExclusive(const Msg &m);
    /** read_write x downgrade_request (incl. forwarded data reply). */
    void downgradeLine(const Msg &m);

    void complete(Addr block, LineState final_state);
    void send(MsgType t, NodeId dst, Addr block,
              bool forwarded = false);
    /** Transition @p block, keeping the valid-line census. */
    void setState(Addr block, LineState st);
    /** Silently drop a read-only victim to respect the capacity. */
    void evictForCapacity(Addr incoming_block);

    NodeId node_;
    const AddrMap &amap_;
    const MachineConfig &cfg_;
    const ProtocolTable &table_;
    sim::EventQueue &eq_;
    SendFn sendFn_;

    /** Non-invalid lines: block -> state. */
    FlatMap<Addr, LineState> lines_;
    std::size_t validLines_ = 0;
    /** Counts inval_ro_requests for FaultInjection::ignoreInvalEvery. */
    unsigned ignoredInvalTick_ = 0;
    /** Outstanding misses: block -> completion callback (an MSHR). */
    FlatMap<Addr, DoneFn> pending_;
    CacheStats stats_;
};

} // namespace cosmos::proto

#endif // COSMOS_PROTO_CACHE_CONTROLLER_HH
