#include "proto/cache_controller.hh"

#include <utility>

#include "common/log.hh"

namespace cosmos::proto
{

const char *
toString(LineState s)
{
    switch (s) {
      case LineState::invalid:    return "invalid";
      case LineState::read_only:  return "read_only";
      case LineState::read_write: return "read_write";
      case LineState::wait_ro:    return "wait_ro";
      case LineState::wait_rw:    return "wait_rw";
      case LineState::wait_upg:   return "wait_upg";
    }
    return "?";
}

CacheController::CacheController(NodeId node, const AddrMap &amap,
                                 const MachineConfig &cfg,
                                 const ProtocolTable &table,
                                 sim::EventQueue &eq, SendFn send)
    : node_(node), amap_(amap), cfg_(cfg), table_(table), eq_(eq),
      sendFn_(std::move(send))
{
}

LineState
CacheController::state(Addr a) const
{
    const LineState *st = lines_.find(amap_.blockBase(a));
    return st == nullptr ? LineState::invalid : *st;
}

void
CacheController::setState(Addr block, LineState st)
{
    LineState *line = lines_.find(block);
    const LineState old = line == nullptr ? LineState::invalid : *line;
    const auto counted = [](LineState s) {
        return s == LineState::read_only || s == LineState::read_write;
    };
    if (counted(old) && !counted(st))
        --validLines_;
    else if (!counted(old) && counted(st))
        ++validLines_;
    if (old != st)
        ++stats_.stateEntries[static_cast<std::size_t>(st)];
    if (st == LineState::invalid)
        lines_.erase(block);
    else if (line != nullptr)
        *line = st;
    else
        lines_.insert(block, st);
}

void
CacheController::evictForCapacity(Addr incoming_block)
{
    if (cfg_.cacheCapacityBlocks == 0 ||
        validLines_ < cfg_.cacheCapacityBlocks) {
        return;
    }
    // Drop the lowest-addressed quiescent read-only line that is not
    // the block being fetched: a victim named by the lines alone, not
    // by the map's iteration order. Read-write lines are never
    // dropped (a clean victim needs no writeback message). If
    // everything is read-write the capacity is soft-exceeded.
    bool found = false;
    Addr victim = 0;
    lines_.forEach([&](Addr block, LineState st) {
        if (block != incoming_block && st == LineState::read_only &&
            (!found || block < victim)) {
            victim = block;
            found = true;
        }
    });
    if (found) {
        setState(victim, LineState::invalid);
        ++stats_.evictions;
    }
}

void
CacheController::forEachLine(
    const std::function<void(Addr, LineState)> &fn) const
{
    lines_.forEach([&](Addr block, LineState st) { fn(block, st); });
}

void
CacheController::restoreLine(Addr block, LineState st)
{
    // setState() keeps the census; a restore leaves the stats alone.
    const auto entries = stats_.stateEntries;
    setState(block, st);
    stats_.stateEntries = entries;
    if (st == LineState::invalid || st == LineState::read_only ||
        st == LineState::read_write)
        pending_.erase(block);
    else
        pending_.obtain(block) = []() {};
}

unsigned
CacheController::invalResidue() const
{
    return cfg_.fault.ignoreInvalEvery == 0
               ? 0
               : ignoredInvalTick_ % cfg_.fault.ignoreInvalEvery;
}

void
CacheController::send(MsgType t, NodeId dst, Addr block,
                      bool forwarded)
{
    Msg m;
    m.type = t;
    m.src = node_;
    m.dst = dst;
    m.block = block;
    m.requester = node_;
    m.forwarded = forwarded;
    sendFn_(m);
}

bool
CacheController::pendingOn(Addr a) const
{
    return pending_.find(amap_.blockBase(a)) != nullptr;
}

void
CacheController::access(Addr a, bool write, DoneFn done)
{
    const Addr block = amap_.blockBase(a);
    const LineState st = state(block);
    // Accesses to transient blocks (processors stall on those; an
    // access here is the caller's error) hit the wait-state rows'
    // declared-unreachable proc entries and panic in dispatch().
    const TransitionRow &row = table_.dispatch(
        Role::cache, static_cast<std::uint8_t>(st),
        write ? input_proc_write : input_proc_read, guard_none, node_);

    if (write)
        ++stats_.stores;
    else
        ++stats_.loads;

    const NodeId home = amap_.home(block);
    switch (row.action) {
      case ActionId::cache_load_hit:
      case ActionId::cache_store_hit:
        if (write)
            ++stats_.storeHits;
        else
            ++stats_.loadHits;
        eq_.scheduleAfter(cfg_.cacheHitLatency, std::move(done));
        break;

      case ActionId::cache_begin_read_miss:
        pending_.insert(block, std::move(done));
        ++stats_.readMisses;
        evictForCapacity(block);
        setState(block, LineState::wait_ro);
        send(MsgType::get_ro_request, home, block);
        break;

      case ActionId::cache_begin_write_miss:
        pending_.insert(block, std::move(done));
        ++stats_.writeMisses;
        evictForCapacity(block);
        setState(block, LineState::wait_rw);
        send(MsgType::get_rw_request, home, block);
        break;

      case ActionId::cache_begin_upgrade:
        pending_.insert(block, std::move(done));
        ++stats_.upgrades;
        setState(block, LineState::wait_upg);
        send(MsgType::upgrade_request, home, block);
        break;

      default:
        cosmos_panic("cache ", node_, " cannot run action ",
                     toString(row.action), " for a processor access");
    }
}

void
CacheController::complete(Addr block, LineState final_state)
{
    setState(block, final_state);
    DoneFn *mshr = pending_.find(block);
    cosmos_assert(mshr != nullptr, "response with no pending access");
    DoneFn done = std::move(*mshr);
    pending_.erase(block);
    done();
}

void
CacheController::handleMessage(const Msg &m)
{
    // Dispatch picks the declared row for the current line state,
    // the message type, and the guard bits derived from the message;
    // a stray response or a message no row covers panics inside
    // dispatch() with the offending (state, input, guard) triple.
    const TransitionRow &row = table_.dispatch(
        Role::cache, static_cast<std::uint8_t>(state(m.block)),
        static_cast<std::uint8_t>(m.type), cacheMsgGuard(m), node_);

    switch (row.action) {
      case ActionId::cache_accept_ro:
        acceptData(m, LineState::read_only);
        break;
      case ActionId::cache_accept_rw:
        acceptData(m, LineState::read_write);
        break;
      case ActionId::cache_accept_upgrade:
        complete(m.block, LineState::read_write);
        break;
      case ActionId::cache_invalidate_shared:
        invalidateShared(m);
        break;
      case ActionId::cache_demote_upgrade:
        demoteUpgrade(m);
        break;
      case ActionId::cache_ack_stale_inval:
        ackStaleInval(m);
        break;
      case ActionId::cache_surrender_exclusive:
        surrenderExclusive(m);
        break;
      case ActionId::cache_downgrade_line:
        downgradeLine(m);
        break;
      default:
        cosmos_panic("cache ", node_, " cannot run action ",
                     toString(row.action), " for ", m.format());
    }
}

void
CacheController::acceptData(const Msg &m, LineState final_state)
{
    // Forwarded three-hop data came straight from the former owner;
    // tell home it arrived so the directory entry can be released
    // (it queues later requests until then).
    if (m.forwarded)
        send(MsgType::fwd_ack, amap_.home(m.block), m.block);
    complete(m.block, final_state);
}

void
CacheController::invalidateShared(const Msg &m)
{
    ++stats_.invalsReceived;
    // Fault injection (checker exercise): pretend to lose every Nth
    // invalidation -- ack home but keep the copy.
    if (cfg_.fault.ignoreInvalEvery != 0 &&
        ++ignoredInvalTick_ % cfg_.fault.ignoreInvalEvery == 0) {
        send(MsgType::inval_ro_response, m.src, m.block);
        return;
    }
    setState(m.block, LineState::invalid);
    send(MsgType::inval_ro_response, m.src, m.block);
}

void
CacheController::demoteUpgrade(const Msg &m)
{
    // Our shared copy is invalidated while our upgrade is queued at
    // the directory; the directory will answer the upgrade with
    // get_rw_response. Drop to wait_rw so that response is accepted.
    ++stats_.invalsReceived;
    setState(m.block, LineState::wait_rw);
    send(MsgType::inval_ro_response, m.src, m.block);
}

void
CacheController::ackStaleInval(const Msg &m)
{
    // With replacement, the directory's sharer list can be stale: we
    // silently dropped this copy (possibly re-fetching it already --
    // the directory serialized another writer first, so a queued
    // request of ours is answered afterwards). Just acknowledge.
    ++stats_.invalsReceived;
    ++stats_.staleInvals;
    send(MsgType::inval_ro_response, m.src, m.block);
}

void
CacheController::surrenderExclusive(const Msg &m)
{
    ++stats_.invalsReceived;
    setState(m.block, LineState::invalid);
    if (m.forwarded) {
        // Three-hop transfer: hand the data straight to the
        // requester, plus a revision message home. The response is
        // marked forwarded so the requester acknowledges home (the
        // legacy oracle omits the mark, and with it the fwd_ack --
        // reproducing the original race).
        send(m.wantWritable ? MsgType::get_rw_response
                            : MsgType::get_ro_response,
             m.requester, m.block, !cfg_.legacyForwarding);
    }
    send(MsgType::inval_rw_response, m.src, m.block);
}

void
CacheController::downgradeLine(const Msg &m)
{
    ++stats_.downgradesReceived;
    setState(m.block, LineState::read_only);
    if (m.forwarded)
        send(MsgType::get_ro_response, m.requester, m.block,
             !cfg_.legacyForwarding);
    send(MsgType::downgrade_response, m.src, m.block);
}

} // namespace cosmos::proto
