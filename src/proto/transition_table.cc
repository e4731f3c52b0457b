#include "proto/transition_table.hh"

#include <algorithm>

#include "common/log.hh"
#include "proto/cache_controller.hh"

namespace cosmos::proto
{

const char *
toString(DirPhase p)
{
    switch (p) {
      case DirPhase::idle:        return "idle";
      case DirPhase::shared:      return "shared";
      case DirPhase::exclusive:   return "exclusive";
      case DirPhase::busy_read:   return "busy_read";
      case DirPhase::busy_write:  return "busy_write";
      case DirPhase::busy_recall: return "busy_recall";
    }
    return "?";
}

const char *
tableInputName(std::uint8_t input)
{
    if (input == input_proc_read)
        return "proc_read";
    if (input == input_proc_write)
        return "proc_write";
    cosmos_assert(input < num_msg_types, "bad table input ",
                  unsigned{input});
    return toString(static_cast<MsgType>(input));
}

namespace
{

struct GuardTag
{
    GuardBits bit;
    const char *name;
};

/** Canonical rendering order of guardContext(): row text and the
 *  order of the model checker's consistency findings depend on it. */
constexpr GuardTag guard_tags[] = {
    {guard_queued, "queued"},
    {guard_sharer, "sharer"},
    {guard_nonsharer, "nonsharer"},
    {guard_others, "others"},
    {guard_solo, "solo"},
    {guard_more_acks, "more_acks"},
    {guard_last_ack, "last_ack"},
    {guard_upg, "upg"},
    {guard_fwd, "fwd"},
    {guard_rw, "rw"},
    {guard_ro, "ro"},
    {guard_await_ack, "await_ack"},
    {guard_await_data, "await_data"},
    {guard_data_done, "data_done"},
    {guard_q, "q"},
};

} // namespace

std::string
guardContext(GuardBits g)
{
    std::string s;
    for (const GuardTag &t : guard_tags) {
        if (!(g & t.bit))
            continue;
        if (!s.empty())
            s += '+';
        s += t.name;
    }
    return s;
}

GuardBits
cacheMsgGuard(const Msg &m)
{
    GuardBits g = guard_none;
    if (!m.forwarded)
        return g;
    g |= guard_fwd;
    if (m.type == MsgType::inval_rw_request ||
        m.type == MsgType::downgrade_request) {
        g |= m.wantWritable ? guard_rw : guard_ro;
    }
    return g;
}

GuardBits
dirRequestGuard(const DirEntry &e, MsgType t, NodeId src)
{
    GuardBits g = guard_none;
    const std::uint64_t srcBit = std::uint64_t{1} << src;
    if (t == MsgType::upgrade_request)
        g |= (e.sharers & srcBit) ? guard_sharer : guard_nonsharer;
    if (t != MsgType::get_ro_request && e.state == DirState::shared)
        g |= (e.sharers & ~srcBit) ? guard_others : guard_solo;
    return g;
}

GuardBits
dirMsgGuard(const DirEntry &e, MsgType t, NodeId src)
{
    GuardBits g = guard_none;
    switch (t) {
      case MsgType::get_ro_request:
      case MsgType::get_rw_request:
      case MsgType::upgrade_request:
        return e.busy ? guard_queued : dirRequestGuard(e, t, src);
      case MsgType::inval_ro_response:
        g |= e.pendingAcks > 1 ? guard_more_acks : guard_last_ack;
        if (e.pendingAcks <= 1 && e.genuineUpgrade)
            g |= guard_upg;
        if (e.pendingAcks <= 1 && !e.waiting.empty())
            g |= guard_q;
        break;
      case MsgType::inval_rw_response:
      case MsgType::downgrade_response:
        if (e.fwdData)
            g |= guard_fwd;
        if (e.fwdAckPending)
            g |= guard_await_ack;
        if (!e.waiting.empty())
            g |= guard_q;
        break;
      case MsgType::fwd_ack:
        g |= e.pendingAcks > 0 ? guard_await_data : guard_data_done;
        if (e.pendingAcks == 0 && !e.waiting.empty())
            g |= guard_q;
        break;
      default:
        break;
    }
    return g;
}

DirPhase
dirPhaseOf(const DirEntry &e)
{
    if (!e.busy)
        return static_cast<DirPhase>(e.state);
    if (e.recall)
        return DirPhase::busy_recall;
    return e.current.type == MsgType::get_ro_request
               ? DirPhase::busy_read
               : DirPhase::busy_write;
}

const char *
toString(Via v)
{
    switch (v) {
      case Via::proc:      return "proc";
      case Via::home:      return "home";
      case Via::owner:     return "owner";
      case Via::requester: return "requester";
      case Via::sharer:    return "sharer";
      case Via::any_cache: return "any_cache";
    }
    return "?";
}

bool
singleChannel(Via v)
{
    return v == Via::home || v == Via::owner || v == Via::requester;
}

const char *
toString(ActionId a)
{
    switch (a) {
      case ActionId::none:                     return "none";
      case ActionId::cache_load_hit:           return "cache_load_hit";
      case ActionId::cache_store_hit:          return "cache_store_hit";
      case ActionId::cache_begin_read_miss:
        return "cache_begin_read_miss";
      case ActionId::cache_begin_write_miss:
        return "cache_begin_write_miss";
      case ActionId::cache_begin_upgrade:      return "cache_begin_upgrade";
      case ActionId::cache_accept_ro:          return "cache_accept_ro";
      case ActionId::cache_accept_rw:          return "cache_accept_rw";
      case ActionId::cache_accept_upgrade:     return "cache_accept_upgrade";
      case ActionId::cache_invalidate_shared:
        return "cache_invalidate_shared";
      case ActionId::cache_demote_upgrade:     return "cache_demote_upgrade";
      case ActionId::cache_ack_stale_inval:    return "cache_ack_stale_inval";
      case ActionId::cache_surrender_exclusive:
        return "cache_surrender_exclusive";
      case ActionId::cache_downgrade_line:     return "cache_downgrade_line";
      case ActionId::dir_queue_request:        return "dir_queue_request";
      case ActionId::dir_serve_read:           return "dir_serve_read";
      case ActionId::dir_serve_write:          return "dir_serve_write";
      case ActionId::dir_serve_upgrade:        return "dir_serve_upgrade";
      case ActionId::dir_promote_upgrade:      return "dir_promote_upgrade";
      case ActionId::dir_inval_ack:            return "dir_inval_ack";
      case ActionId::dir_revision:             return "dir_revision";
      case ActionId::dir_downgrade_ack:        return "dir_downgrade_ack";
      case ActionId::dir_fwd_ack:              return "dir_fwd_ack";
    }
    return "?";
}

std::string
TransitionRow::where() const
{
    return detail::concat("src/proto/transition_table.cc:", line);
}

std::string
TransitionRow::format() const
{
    const std::string key = formatRowKey(role, state, input, guard);
    if (unreachable)
        return key + " : unreachable";
    return detail::concat(key, " ", formatRowOutcome(role, next, emits));
}

std::string
formatRowKey(Role role, std::uint8_t state, std::uint8_t input,
             GuardBits guard)
{
    std::string s = detail::concat(toString(role), " ",
                                   ProtocolTable::stateName(role, state),
                                   " x ", tableInputName(input));
    if (guard != guard_none)
        s += detail::concat(" [", guardContext(guard), "]");
    return s;
}

std::string
formatRowOutcome(Role role, std::uint8_t next,
                 const std::vector<MsgType> &emits)
{
    std::string s =
        detail::concat("-> ", ProtocolTable::stateName(role, next));
    if (!emits.empty()) {
        s += " !";
        for (MsgType t : emits)
            s += detail::concat(" ", proto::toString(t));
    }
    return s;
}

namespace
{

constexpr unsigned f_allow_q = 1;
constexpr unsigned f_completes = 2;
constexpr unsigned f_delegates = 4;

/** Collects rows; a disabled (config-gated-off) row is dropped and
 *  the scratch row returned so call sites stay uniform. */
struct TableBuilder
{
    std::vector<TransitionRow> rows;
    TransitionRow scratch;

    TransitionRow &push(int line, bool enabled, Role role,
                        std::uint8_t state, std::uint8_t input,
                        GuardBits guard, ActionId action,
                        std::uint8_t next,
                        std::initializer_list<MsgType> emits, Via via,
                        unsigned flags = 0, std::uint16_t clears = 0)
    {
        if (!enabled) {
            scratch = TransitionRow{};
            return scratch;
        }
        TransitionRow r;
        r.role = role;
        r.state = state;
        r.input = input;
        r.guard = guard;
        r.action = action;
        r.next = next;
        r.emits.assign(emits.begin(), emits.end());
        std::sort(r.emits.begin(), r.emits.end());
        r.emits.erase(std::unique(r.emits.begin(), r.emits.end()),
                      r.emits.end());
        r.via = via;
        r.allowQ = (flags & f_allow_q) != 0;
        r.completes = (flags & f_completes) != 0;
        r.delegatesData = (flags & f_delegates) != 0;
        r.clears = clears;
        r.line = line;
        rows.push_back(std::move(r));
        return rows.back();
    }

    TransitionRow &gap(int line, bool enabled, Role role,
                       std::uint8_t state, std::uint8_t input, Via via)
    {
        if (!enabled) {
            scratch = TransitionRow{};
            return scratch;
        }
        TransitionRow r;
        r.role = role;
        r.state = state;
        r.input = input;
        r.action = ActionId::none;
        r.next = state;
        r.via = via;
        r.unreachable = true;
        r.line = line;
        rows.push_back(std::move(r));
        return rows.back();
    }
};

constexpr unsigned num_states = 6;

unsigned
bucketIndex(Role role, std::uint8_t state, std::uint8_t input)
{
    return (role == Role::directory
                ? num_states * num_table_inputs
                : 0u) +
           state * num_table_inputs + input;
}

} // namespace

ProtocolTable
ProtocolTable::build(const MachineConfig &cfg)
{
    const bool cap = cfg.cacheCapacityBlocks != 0;
    const bool fwd = cfg.forwarding;
    // The fwd_ack handshake is what distinguishes the fixed protocol
    // from the --legacy-forwarding oracle; rows gated on `ack` exist
    // only in the fixed protocol.
    const bool ack = fwd && !cfg.legacyForwarding;
    const bool half =
        cfg.ownerReadPolicy == OwnerReadPolicy::half_migratory;
    const bool dash = !half;

    constexpr Role C = Role::cache;
    constexpr Role D = Role::directory;
    const auto ls = [](LineState s) {
        return static_cast<std::uint8_t>(s);
    };
    const auto ph = [](DirPhase p) {
        return static_cast<std::uint8_t>(p);
    };
    const auto in = [](MsgType t) {
        return static_cast<std::uint8_t>(t);
    };
    const std::uint16_t clears_inval_ro = static_cast<std::uint16_t>(
        1u << in(MsgType::inval_ro_request));

    using enum MsgType;
    TableBuilder b;

#define ROW(cond, ...) b.push(__LINE__, (cond), __VA_ARGS__)
#define GAP(cond, ...) b.gap(__LINE__, (cond), __VA_ARGS__)

    // ---------------- cache: invalid ----------------
    ROW(true, C, ls(LineState::invalid), input_proc_read, guard_none,
        ActionId::cache_begin_read_miss, ls(LineState::wait_ro),
        {get_ro_request}, Via::proc);
    ROW(true, C, ls(LineState::invalid), input_proc_write, guard_none,
        ActionId::cache_begin_write_miss, ls(LineState::wait_rw),
        {get_rw_request}, Via::proc);
    // With replacement the directory's sharer list can be stale: an
    // invalidation may target a silently dropped line.
    ROW(cap, C, ls(LineState::invalid), in(inval_ro_request), guard_none,
        ActionId::cache_ack_stale_inval, ls(LineState::invalid),
        {inval_ro_response}, Via::home);
    GAP(!cap, C, ls(LineState::invalid), in(inval_ro_request), Via::home);
    GAP(true, C, ls(LineState::invalid), in(get_ro_response), Via::home);
    GAP(true, C, ls(LineState::invalid), in(get_rw_response), Via::home);
    GAP(true, C, ls(LineState::invalid), in(upgrade_response), Via::home);
    GAP(true, C, ls(LineState::invalid), in(inval_rw_request), Via::home);
    GAP(true, C, ls(LineState::invalid), in(downgrade_request), Via::home);

    // ---------------- cache: read_only ----------------
    ROW(true, C, ls(LineState::read_only), input_proc_read, guard_none,
        ActionId::cache_load_hit, ls(LineState::read_only), {},
        Via::proc);
    ROW(true, C, ls(LineState::read_only), input_proc_write, guard_none,
        ActionId::cache_begin_upgrade, ls(LineState::wait_upg),
        {upgrade_request}, Via::proc);
    ROW(true, C, ls(LineState::read_only), in(inval_ro_request),
        guard_none, ActionId::cache_invalidate_shared,
        ls(LineState::invalid), {inval_ro_response}, Via::home);
    GAP(true, C, ls(LineState::read_only), in(get_ro_response), Via::home);
    GAP(true, C, ls(LineState::read_only), in(get_rw_response), Via::home);
    GAP(true, C, ls(LineState::read_only), in(upgrade_response), Via::home);
    GAP(true, C, ls(LineState::read_only), in(inval_rw_request), Via::home);
    GAP(true, C, ls(LineState::read_only), in(downgrade_request),
        Via::home);

    // ---------------- cache: read_write ----------------
    ROW(true, C, ls(LineState::read_write), input_proc_read, guard_none,
        ActionId::cache_load_hit, ls(LineState::read_write), {},
        Via::proc);
    ROW(true, C, ls(LineState::read_write), input_proc_write, guard_none,
        ActionId::cache_store_hit, ls(LineState::read_write), {},
        Via::proc);
    ROW(true, C, ls(LineState::read_write), in(inval_rw_request),
        guard_none, ActionId::cache_surrender_exclusive,
        ls(LineState::invalid), {inval_rw_response}, Via::home);
    // Forwarded recalls add the direct three-hop data reply; which
    // response the requester gets is the recall's wantWritable bit.
    ROW(fwd, C, ls(LineState::read_write), in(inval_rw_request),
        guard_fwd | guard_rw, ActionId::cache_surrender_exclusive,
        ls(LineState::invalid), {get_rw_response, inval_rw_response},
        Via::home);
    ROW(fwd, C, ls(LineState::read_write), in(inval_rw_request),
        guard_fwd | guard_ro, ActionId::cache_surrender_exclusive,
        ls(LineState::invalid), {get_ro_response, inval_rw_response},
        Via::home);
    ROW(true, C, ls(LineState::read_write), in(downgrade_request),
        guard_none, ActionId::cache_downgrade_line,
        ls(LineState::read_only), {downgrade_response}, Via::home);
    ROW(fwd, C, ls(LineState::read_write), in(downgrade_request),
        guard_fwd | guard_ro, ActionId::cache_downgrade_line,
        ls(LineState::read_only), {get_ro_response, downgrade_response},
        Via::home);
    GAP(true, C, ls(LineState::read_write), in(get_ro_response), Via::home);
    GAP(true, C, ls(LineState::read_write), in(get_rw_response), Via::home);
    GAP(true, C, ls(LineState::read_write), in(upgrade_response),
        Via::home);
    GAP(true, C, ls(LineState::read_write), in(inval_ro_request),
        Via::home);

    // ---------------- cache: wait_ro ----------------
    ROW(true, C, ls(LineState::wait_ro), in(get_ro_response), guard_none,
        ActionId::cache_accept_ro, ls(LineState::read_only), {},
        Via::home, f_completes);
    // Forwarded three-hop data: acknowledge home so the directory
    // entry (still busy, queueing later requests) can be released.
    ROW(ack, C, ls(LineState::wait_ro), in(get_ro_response), guard_fwd,
        ActionId::cache_accept_ro, ls(LineState::read_only), {fwd_ack},
        Via::owner, f_completes);
    // The directory may answer a read with an exclusive copy when it
    // predicts a read-modify-write (§4.1).
    ROW(true, C, ls(LineState::wait_ro), in(get_rw_response), guard_none,
        ActionId::cache_accept_rw, ls(LineState::read_write), {},
        Via::home, f_completes);
    ROW(cap, C, ls(LineState::wait_ro), in(inval_ro_request), guard_none,
        ActionId::cache_ack_stale_inval, ls(LineState::wait_ro),
        {inval_ro_response}, Via::home);
    // Without replacement a wait_ro line cannot receive an
    // invalidation -- this is exactly the row the legacy-forwarding
    // race violates (the model checker's counterexample lands here).
    GAP(!cap, C, ls(LineState::wait_ro), in(inval_ro_request), Via::home);
    GAP(true, C, ls(LineState::wait_ro), in(upgrade_response), Via::home);
    GAP(true, C, ls(LineState::wait_ro), in(inval_rw_request), Via::home);
    GAP(true, C, ls(LineState::wait_ro), in(downgrade_request), Via::home);
    GAP(true, C, ls(LineState::wait_ro), input_proc_read, Via::proc);
    GAP(true, C, ls(LineState::wait_ro), input_proc_write, Via::proc);

    // ---------------- cache: wait_rw ----------------
    ROW(true, C, ls(LineState::wait_rw), in(get_rw_response), guard_none,
        ActionId::cache_accept_rw, ls(LineState::read_write), {},
        Via::home, f_completes);
    ROW(ack, C, ls(LineState::wait_rw), in(get_rw_response), guard_fwd,
        ActionId::cache_accept_rw, ls(LineState::read_write), {fwd_ack},
        Via::owner, f_completes, clears_inval_ro);
    ROW(cap, C, ls(LineState::wait_rw), in(inval_ro_request), guard_none,
        ActionId::cache_ack_stale_inval, ls(LineState::wait_rw),
        {inval_ro_response}, Via::home);
    GAP(!cap, C, ls(LineState::wait_rw), in(inval_ro_request), Via::home);
    GAP(true, C, ls(LineState::wait_rw), in(get_ro_response), Via::home);
    GAP(true, C, ls(LineState::wait_rw), in(upgrade_response), Via::home);
    GAP(true, C, ls(LineState::wait_rw), in(inval_rw_request), Via::home);
    GAP(true, C, ls(LineState::wait_rw), in(downgrade_request), Via::home);
    GAP(true, C, ls(LineState::wait_rw), input_proc_read, Via::proc);
    GAP(true, C, ls(LineState::wait_rw), input_proc_write, Via::proc);

    // ---------------- cache: wait_upg ----------------
    ROW(true, C, ls(LineState::wait_upg), in(get_rw_response),
        guard_none, ActionId::cache_accept_rw,
        ls(LineState::read_write), {}, Via::home, f_completes);
    ROW(ack, C, ls(LineState::wait_upg), in(get_rw_response), guard_fwd,
        ActionId::cache_accept_rw, ls(LineState::read_write), {fwd_ack},
        Via::owner, f_completes, clears_inval_ro);
    ROW(true, C, ls(LineState::wait_upg), in(upgrade_response),
        guard_none, ActionId::cache_accept_upgrade,
        ls(LineState::read_write), {}, Via::home, f_completes);
    // Our shared copy is swept while the upgrade waits; drop to
    // wait_rw so the directory's promoted get_rw_response is accepted.
    ROW(true, C, ls(LineState::wait_upg), in(inval_ro_request),
        guard_none, ActionId::cache_demote_upgrade,
        ls(LineState::wait_rw), {inval_ro_response}, Via::home);
    GAP(true, C, ls(LineState::wait_upg), in(get_ro_response), Via::home);
    GAP(true, C, ls(LineState::wait_upg), in(inval_rw_request), Via::home);
    GAP(true, C, ls(LineState::wait_upg), in(downgrade_request),
        Via::home);
    GAP(true, C, ls(LineState::wait_upg), input_proc_read, Via::proc);
    GAP(true, C, ls(LineState::wait_upg), input_proc_write, Via::proc);

    // ---------------- directory: idle ----------------
    ROW(true, D, ph(DirPhase::idle), in(get_ro_request), guard_none,
        ActionId::dir_serve_read, ph(DirPhase::shared),
        {get_ro_response}, Via::any_cache, f_completes);
    ROW(true, D, ph(DirPhase::idle), in(get_rw_request), guard_none,
        ActionId::dir_serve_write, ph(DirPhase::exclusive),
        {get_rw_response}, Via::any_cache, f_completes);
    ROW(true, D, ph(DirPhase::idle), in(upgrade_request),
        guard_nonsharer, ActionId::dir_promote_upgrade,
        ph(DirPhase::exclusive), {get_rw_response}, Via::any_cache,
        f_completes);
    GAP(true, D, ph(DirPhase::idle), in(inval_ro_response), Via::sharer);
    GAP(true, D, ph(DirPhase::idle), in(inval_rw_response), Via::owner);
    GAP(true, D, ph(DirPhase::idle), in(downgrade_response), Via::owner);
    GAP(true, D, ph(DirPhase::idle), in(fwd_ack), Via::requester);

    // ---------------- directory: shared ----------------
    ROW(true, D, ph(DirPhase::shared), in(get_ro_request), guard_none,
        ActionId::dir_serve_read, ph(DirPhase::shared),
        {get_ro_response}, Via::any_cache, f_completes);
    ROW(true, D, ph(DirPhase::shared), in(get_rw_request), guard_others,
        ActionId::dir_serve_write, ph(DirPhase::busy_write),
        {inval_ro_request}, Via::any_cache);
    // Only under replacement: a get_rw from the sole (stale) sharer.
    ROW(cap, D, ph(DirPhase::shared), in(get_rw_request), guard_solo,
        ActionId::dir_serve_write, ph(DirPhase::exclusive),
        {get_rw_response}, Via::any_cache, f_completes);
    ROW(true, D, ph(DirPhase::shared), in(upgrade_request),
        guard_sharer | guard_others, ActionId::dir_serve_upgrade,
        ph(DirPhase::busy_write), {inval_ro_request}, Via::any_cache);
    ROW(true, D, ph(DirPhase::shared), in(upgrade_request),
        guard_sharer | guard_solo, ActionId::dir_serve_upgrade,
        ph(DirPhase::exclusive), {upgrade_response}, Via::any_cache,
        f_completes);
    // The requester's copy was invalidated while its upgrade was in
    // flight: promote to a full write fetch.
    ROW(true, D, ph(DirPhase::shared), in(upgrade_request),
        guard_nonsharer | guard_others, ActionId::dir_promote_upgrade,
        ph(DirPhase::busy_write), {inval_ro_request}, Via::any_cache);
    GAP(true, D, ph(DirPhase::shared), in(inval_ro_response),
        Via::sharer);
    GAP(true, D, ph(DirPhase::shared), in(inval_rw_response), Via::owner);
    GAP(true, D, ph(DirPhase::shared), in(downgrade_response),
        Via::owner);
    GAP(true, D, ph(DirPhase::shared), in(fwd_ack), Via::requester);

    // ---------------- directory: exclusive ----------------
    ROW(half, D, ph(DirPhase::exclusive), in(get_ro_request), guard_none,
        ActionId::dir_serve_read, ph(DirPhase::busy_read),
        {inval_rw_request}, Via::any_cache);
    ROW(dash, D, ph(DirPhase::exclusive), in(get_ro_request), guard_none,
        ActionId::dir_serve_read, ph(DirPhase::busy_read),
        {downgrade_request}, Via::any_cache);
    ROW(true, D, ph(DirPhase::exclusive), in(get_rw_request), guard_none,
        ActionId::dir_serve_write, ph(DirPhase::busy_write),
        {inval_rw_request}, Via::any_cache);
    ROW(true, D, ph(DirPhase::exclusive), in(upgrade_request),
        guard_nonsharer, ActionId::dir_promote_upgrade,
        ph(DirPhase::busy_write), {inval_rw_request}, Via::any_cache);
    GAP(true, D, ph(DirPhase::exclusive), in(inval_ro_response),
        Via::sharer);
    GAP(true, D, ph(DirPhase::exclusive), in(inval_rw_response),
        Via::owner);
    GAP(true, D, ph(DirPhase::exclusive), in(downgrade_response),
        Via::owner);
    GAP(true, D, ph(DirPhase::exclusive), in(fwd_ack), Via::requester);

    // ------------- directory: busy request queueing -------------
    for (DirPhase p : {DirPhase::busy_read, DirPhase::busy_write,
                       DirPhase::busy_recall}) {
        for (MsgType rq :
             {get_ro_request, get_rw_request, upgrade_request}) {
            ROW(true, D, ph(p), in(rq), guard_queued,
                ActionId::dir_queue_request, ph(p), {}, Via::any_cache);
        }
    }

    // ---------------- directory: busy_read ----------------
    ROW(half, D, ph(DirPhase::busy_read), in(inval_rw_response),
        guard_none, ActionId::dir_revision, ph(DirPhase::shared),
        {get_ro_response}, Via::owner, f_allow_q | f_completes);
    ROW(half && fwd, D, ph(DirPhase::busy_read), in(inval_rw_response),
        guard_fwd, ActionId::dir_revision, ph(DirPhase::shared), {},
        Via::owner, f_allow_q | f_completes | f_delegates);
    ROW(half && ack, D, ph(DirPhase::busy_read), in(inval_rw_response),
        guard_fwd | guard_await_ack, ActionId::dir_revision,
        ph(DirPhase::busy_read), {}, Via::owner,
        f_allow_q | f_delegates);
    GAP(dash, D, ph(DirPhase::busy_read), in(inval_rw_response),
        Via::owner);
    ROW(dash, D, ph(DirPhase::busy_read), in(downgrade_response),
        guard_none, ActionId::dir_downgrade_ack, ph(DirPhase::shared),
        {get_ro_response}, Via::owner, f_allow_q | f_completes);
    ROW(dash && fwd, D, ph(DirPhase::busy_read), in(downgrade_response),
        guard_fwd, ActionId::dir_downgrade_ack, ph(DirPhase::shared),
        {}, Via::owner, f_allow_q | f_completes | f_delegates);
    ROW(dash && ack, D, ph(DirPhase::busy_read), in(downgrade_response),
        guard_fwd | guard_await_ack, ActionId::dir_downgrade_ack,
        ph(DirPhase::busy_read), {}, Via::owner,
        f_allow_q | f_delegates);
    GAP(half, D, ph(DirPhase::busy_read), in(downgrade_response),
        Via::owner);
    ROW(ack, D, ph(DirPhase::busy_read), in(fwd_ack), guard_await_data,
        ActionId::dir_fwd_ack, ph(DirPhase::busy_read), {},
        Via::requester);
    ROW(ack, D, ph(DirPhase::busy_read), in(fwd_ack), guard_data_done,
        ActionId::dir_fwd_ack, ph(DirPhase::shared), {}, Via::requester,
        f_allow_q | f_completes);
    GAP(!ack, D, ph(DirPhase::busy_read), in(fwd_ack), Via::requester);
    GAP(true, D, ph(DirPhase::busy_read), in(inval_ro_response),
        Via::sharer);

    // ---------------- directory: busy_write ----------------
    ROW(true, D, ph(DirPhase::busy_write), in(inval_ro_response),
        guard_more_acks, ActionId::dir_inval_ack,
        ph(DirPhase::busy_write), {}, Via::sharer);
    ROW(true, D, ph(DirPhase::busy_write), in(inval_ro_response),
        guard_last_ack, ActionId::dir_inval_ack,
        ph(DirPhase::exclusive), {get_rw_response}, Via::sharer,
        f_allow_q | f_completes);
    ROW(true, D, ph(DirPhase::busy_write), in(inval_ro_response),
        guard_last_ack | guard_upg, ActionId::dir_inval_ack,
        ph(DirPhase::exclusive), {upgrade_response}, Via::sharer,
        f_allow_q | f_completes);
    ROW(true, D, ph(DirPhase::busy_write), in(inval_rw_response),
        guard_none, ActionId::dir_revision, ph(DirPhase::exclusive),
        {get_rw_response}, Via::owner, f_allow_q | f_completes);
    ROW(fwd, D, ph(DirPhase::busy_write), in(inval_rw_response),
        guard_fwd, ActionId::dir_revision, ph(DirPhase::exclusive), {},
        Via::owner, f_allow_q | f_completes | f_delegates);
    ROW(ack, D, ph(DirPhase::busy_write), in(inval_rw_response),
        guard_fwd | guard_await_ack, ActionId::dir_revision,
        ph(DirPhase::busy_write), {}, Via::owner,
        f_allow_q | f_delegates);
    ROW(ack, D, ph(DirPhase::busy_write), in(fwd_ack), guard_await_data,
        ActionId::dir_fwd_ack, ph(DirPhase::busy_write), {},
        Via::requester);
    ROW(ack, D, ph(DirPhase::busy_write), in(fwd_ack), guard_data_done,
        ActionId::dir_fwd_ack, ph(DirPhase::exclusive), {},
        Via::requester, f_allow_q | f_completes);
    GAP(!ack, D, ph(DirPhase::busy_write), in(fwd_ack), Via::requester);
    GAP(true, D, ph(DirPhase::busy_write), in(downgrade_response),
        Via::owner);

    // ---------------- directory: busy_recall ----------------
    ROW(true, D, ph(DirPhase::busy_recall), in(inval_rw_response),
        guard_none, ActionId::dir_revision, ph(DirPhase::idle), {},
        Via::owner, f_allow_q | f_completes);
    GAP(true, D, ph(DirPhase::busy_recall), in(inval_ro_response),
        Via::sharer);
    GAP(true, D, ph(DirPhase::busy_recall), in(downgrade_response),
        Via::owner);
    GAP(true, D, ph(DirPhase::busy_recall), in(fwd_ack), Via::requester);

#undef ROW
#undef GAP

    ProtocolTable t;
    t.cfg_ = cfg;
    t.rows_ = std::move(b.rows);
    t.reindex();
    return t;
}

void
ProtocolTable::reindex()
{
    index_.assign(2 * num_states * num_table_inputs, {});
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        const TransitionRow &r = rows_[i];
        cosmos_assert(r.state < num_states &&
                          r.input < num_table_inputs,
                      "table row out of range: ", r.format());
        index_[bucketIndex(r.role, r.state, r.input)].push_back(
            static_cast<std::uint16_t>(i));
    }
}

const TransitionRow *
ProtocolTable::find(Role role, std::uint8_t state, std::uint8_t input,
                    GuardBits guard) const
{
    if (state >= num_states || input >= num_table_inputs)
        return nullptr;
    const TransitionRow *unreachable_marker = nullptr;
    for (std::uint16_t i : index_[bucketIndex(role, state, input)]) {
        const TransitionRow &r = rows_[i];
        if (r.unreachable) {
            unreachable_marker = &r;
            continue;
        }
        if (guard == r.guard ||
            (r.allowQ && guard == (r.guard | guard_q))) {
            return &r;
        }
    }
    return unreachable_marker;
}

const TransitionRow &
ProtocolTable::dispatch(Role role, std::uint8_t state,
                        std::uint8_t input, GuardBits guard,
                        NodeId node) const
{
    const TransitionRow *r = find(role, state, input, guard);
    if (r == nullptr) {
        const std::string g =
            guard == guard_none
                ? std::string{}
                : detail::concat(" [", guardContext(guard), "]");
        cosmos_panic("no declared transition row for ", toString(role),
                     " node ", node, " handling ",
                     tableInputName(input), " in state ",
                     stateName(role, state), g);
    }
    if (r->unreachable) {
        cosmos_panic("declared-unreachable transition: ",
                     toString(role), " node ", node, " handling ",
                     tableInputName(input), " in state ",
                     stateName(role, state), " (", r->where(), ")");
    }
    return *r;
}

const char *
ProtocolTable::stateName(Role role, std::uint8_t state)
{
    if (role == Role::cache)
        return toString(static_cast<LineState>(state));
    return toString(static_cast<DirPhase>(state));
}

} // namespace cosmos::proto
