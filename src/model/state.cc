#include "model/state.hh"

#include <algorithm>

namespace cosmos::model
{

void
ModelConfig::validate() const
{
    if (numNodes < 2 || numNodes > max_nodes)
        cosmos_fatal("model numNodes must be in [2, ", max_nodes,
                     "], got ", numNodes);
    if (numBlocks < 1 || numBlocks > max_blocks)
        cosmos_fatal("model numBlocks must be in [1, ", max_blocks,
                     "], got ", numBlocks);
    if (reorder >= max_queue)
        cosmos_fatal("model reorder bound must be < ", max_queue,
                     ", got ", reorder);
    if (ignoreInvalEvery > max_ignore_inval_every)
        cosmos_fatal("model lost-invalidation period must be <= ",
                     max_ignore_inval_every, ", got ", ignoreInvalEvery);
}

MachineConfig
ModelConfig::machineConfig() const
{
    MachineConfig cfg;
    cfg.numNodes = numNodes;
    cfg.ownerReadPolicy = policy;
    cfg.forwarding = forwarding;
    cfg.legacyForwarding = legacyForwarding;
    cfg.fault.ignoreInvalEvery = ignoreInvalEvery;
    // Stache's no-replacement mode: the model has no eviction actions.
    cfg.cacheCapacityBlocks = 0;
    cfg.memoryLevelParallelism = 1;
    return cfg;
}

Addr
ModelConfig::blockAddr(unsigned b) const
{
    // One block per page so the round-robin page map spreads homes:
    // home(blockAddr(b)) == b % numNodes.
    return static_cast<Addr>(b) * MachineConfig{}.pageBytes;
}

std::string
Action::format() const
{
    switch (kind) {
      case Kind::issue_read:
        return detail::concat("node ", unsigned{node}, ": read block ",
                              unsigned{blockIdx});
      case Kind::issue_write:
        return detail::concat("node ", unsigned{node},
                              ": write block ", unsigned{blockIdx});
      case Kind::deliver:
        return detail::concat("deliver ", proto::toString(msg.type),
                              " ", unsigned{src}, "->", unsigned{dst},
                              " block ", unsigned{msg.blockIdx},
                              depth == 0 ? ""
                                         : detail::concat(" (overtakes ",
                                                          unsigned{depth},
                                                          ")"));
    }
    return "?";
}

namespace
{

/** True when node @p n has a miss outstanding on any block (the
 *  blocking processor cannot issue another access). */
bool
nodeBusy(const GlobalState &s, const ModelConfig &mc, unsigned n)
{
    for (unsigned b = 0; b < mc.numBlocks; ++b) {
        const auto st = static_cast<proto::LineState>(s.line[n][b]);
        if (st == proto::LineState::wait_ro ||
            st == proto::LineState::wait_rw ||
            st == proto::LineState::wait_upg) {
            return true;
        }
    }
    return false;
}

} // namespace

void
enumerateActions(const GlobalState &s, const ModelConfig &mc,
                 std::vector<Action> &out)
{
    out.clear();
    for (unsigned n = 0; n < mc.numNodes; ++n) {
        if (nodeBusy(s, mc, n))
            continue;
        for (unsigned b = 0; b < mc.numBlocks; ++b) {
            const auto st = static_cast<proto::LineState>(s.line[n][b]);
            // Hits move no protocol state: only misses are actions.
            if (st == proto::LineState::invalid) {
                Action a;
                a.kind = Action::Kind::issue_read;
                a.node = static_cast<std::uint8_t>(n);
                a.blockIdx = static_cast<std::uint8_t>(b);
                out.push_back(a);
            }
            if (st == proto::LineState::invalid ||
                st == proto::LineState::read_only) {
                Action a;
                a.kind = Action::Kind::issue_write;
                a.node = static_cast<std::uint8_t>(n);
                a.blockIdx = static_cast<std::uint8_t>(b);
                out.push_back(a);
            }
        }
    }
    for (unsigned src = 0; src < mc.numNodes; ++src) {
        for (unsigned dst = 0; dst < mc.numNodes; ++dst) {
            if (src == dst)
                continue;
            const MsgQueue &q = s.channel(src, dst);
            const unsigned deliverable =
                std::min<unsigned>(q.count, mc.reorder + 1);
            for (unsigned i = 0; i < deliverable; ++i) {
                Action a;
                a.kind = Action::Kind::deliver;
                a.src = static_cast<std::uint8_t>(src);
                a.dst = static_cast<std::uint8_t>(dst);
                a.depth = static_cast<std::uint8_t>(i);
                a.msg = q.items[i];
                out.push_back(a);
            }
        }
    }
}

bool
isQuiescent(const GlobalState &s, const ModelConfig &mc)
{
    for (unsigned src = 0; src < mc.numNodes; ++src)
        for (unsigned dst = 0; dst < mc.numNodes; ++dst)
            if (s.channel(src, dst).count != 0)
                return false;
    for (unsigned n = 0; n < mc.numNodes; ++n)
        if (nodeBusy(s, mc, n))
            return false;
    for (unsigned b = 0; b < mc.numBlocks; ++b)
        if (s.dir[b].busy)
            return false;
    return true;
}

namespace
{

std::uint8_t *
encodeMsg(const CompactMsg &m, std::uint8_t *out)
{
    *out++ = static_cast<std::uint8_t>(m.type);
    *out++ = m.src;
    *out++ = m.dst;
    *out++ = m.requester;
    *out++ = m.blockIdx;
    *out++ = static_cast<std::uint8_t>(m.forwarded);
    *out++ = static_cast<std::uint8_t>(m.wantWritable);
    return out;
}

std::size_t
decodeMsg(const std::uint8_t *enc, CompactMsg &m)
{
    m.type = static_cast<proto::MsgType>(enc[0]);
    m.src = enc[1];
    m.dst = enc[2];
    m.requester = enc[3];
    m.blockIdx = enc[4];
    m.forwarded = enc[5] != 0;
    m.wantWritable = enc[6] != 0;
    return 7;
}

std::uint8_t *
encodeQueue(const MsgQueue &q, std::uint8_t *out)
{
    *out++ = q.count;
    for (unsigned i = 0; i < q.count; ++i)
        out = encodeMsg(q.items[i], out);
    return out;
}

std::size_t
decodeQueue(const std::uint8_t *enc, MsgQueue &q)
{
    q = MsgQueue{};
    const std::uint8_t count = enc[0];
    cosmos_assert(count <= max_queue, "corrupt queue encoding");
    std::size_t at = 1;
    for (unsigned i = 0; i < count; ++i)
        at += decodeMsg(enc + at, q.items[i]);
    q.count = count;
    return at;
}

} // namespace

std::size_t
encodeState(const GlobalState &s, const ModelConfig &mc,
            std::uint8_t *out)
{
    std::uint8_t *const begin = out;
    for (unsigned n = 0; n < mc.numNodes; ++n) {
        for (unsigned b = 0; b < mc.numBlocks; ++b)
            *out++ = s.line[n][b];
        *out++ = s.invalResidue[n];
    }
    for (unsigned b = 0; b < mc.numBlocks; ++b) {
        const DirEntryState &e = s.dir[b];
        *out++ = static_cast<std::uint8_t>(e.state);
        *out++ = e.sharers;
        *out++ = e.owner;
        *out++ = static_cast<std::uint8_t>(e.busy);
        *out++ = e.pendingAcks;
        *out++ = static_cast<std::uint8_t>(e.genuineUpgrade);
        *out++ = static_cast<std::uint8_t>(e.recall);
        *out++ = static_cast<std::uint8_t>(e.fwdData);
        *out++ = static_cast<std::uint8_t>(e.fwdAckPending);
        out = encodeMsg(e.current, out);
        out = encodeQueue(e.waiting, out);
    }
    for (unsigned src = 0; src < mc.numNodes; ++src)
        for (unsigned dst = 0; dst < mc.numNodes; ++dst)
            if (src != dst)
                out = encodeQueue(s.channel(src, dst), out);
    return static_cast<std::size_t>(out - begin);
}

void
encodeState(const GlobalState &s, const ModelConfig &mc,
            std::vector<std::uint8_t> &out)
{
    std::uint8_t buf[max_encoding_bytes];
    out.assign(buf, buf + encodeState(s, mc, buf));
}

void
decodeState(const std::uint8_t *enc, std::size_t len,
            const ModelConfig &mc, GlobalState &out)
{
    out = GlobalState{};
    std::size_t at = 0;
    for (unsigned n = 0; n < mc.numNodes; ++n) {
        for (unsigned b = 0; b < mc.numBlocks; ++b)
            out.line[n][b] = enc[at++];
        out.invalResidue[n] = enc[at++];
    }
    for (unsigned b = 0; b < mc.numBlocks; ++b) {
        DirEntryState &e = out.dir[b];
        e.state = static_cast<proto::DirState>(enc[at++]);
        e.sharers = enc[at++];
        e.owner = enc[at++];
        e.busy = enc[at++] != 0;
        e.pendingAcks = enc[at++];
        e.genuineUpgrade = enc[at++] != 0;
        e.recall = enc[at++] != 0;
        e.fwdData = enc[at++] != 0;
        e.fwdAckPending = enc[at++] != 0;
        at += decodeMsg(enc + at, e.current);
        at += decodeQueue(enc + at, e.waiting);
    }
    for (unsigned src = 0; src < mc.numNodes; ++src)
        for (unsigned dst = 0; dst < mc.numNodes; ++dst)
            if (src != dst)
                at += decodeQueue(enc + at, out.channel(src, dst));
    cosmos_assert(at == len, "state encoding length mismatch: ", at,
                  " vs ", len);
}

namespace
{

std::uint8_t
mapNode(std::uint8_t n, const std::array<std::uint8_t, max_nodes> &perm)
{
    return n == no_node ? no_node : perm[n];
}

CompactMsg
mapMsg(const CompactMsg &m,
       const std::array<std::uint8_t, max_nodes> &perm)
{
    CompactMsg r = m;
    r.src = mapNode(m.src, perm);
    r.dst = mapNode(m.dst, perm);
    r.requester = mapNode(m.requester, perm);
    return r;
}

std::uint8_t
mapSharers(std::uint8_t sharers, const ModelConfig &mc,
           const std::array<std::uint8_t, max_nodes> &perm)
{
    std::uint8_t r = 0;
    for (unsigned n = 0; n < mc.numNodes; ++n)
        if (sharers & (1u << n))
            r |= static_cast<std::uint8_t>(1u << perm[n]);
    return r;
}

} // namespace

GlobalState
permuteNodes(const GlobalState &s, const ModelConfig &mc,
             const std::array<std::uint8_t, max_nodes> &perm)
{
    GlobalState r;
    for (unsigned n = 0; n < mc.numNodes; ++n) {
        for (unsigned b = 0; b < mc.numBlocks; ++b)
            r.line[perm[n]][b] = s.line[n][b];
        r.invalResidue[perm[n]] = s.invalResidue[n];
    }
    for (unsigned b = 0; b < mc.numBlocks; ++b) {
        DirEntryState &e = r.dir[b];
        e = s.dir[b];
        e.sharers = mapSharers(e.sharers, mc, perm);
        e.owner = mapNode(e.owner, perm);
        e.current = mapMsg(e.current, perm);
        for (unsigned i = 0; i < e.waiting.count; ++i)
            e.waiting.items[i] = mapMsg(e.waiting.items[i], perm);
    }
    for (unsigned src = 0; src < mc.numNodes; ++src) {
        for (unsigned dst = 0; dst < mc.numNodes; ++dst) {
            if (src == dst)
                continue;
            const MsgQueue &q = s.channel(src, dst);
            MsgQueue &rq = r.channel(perm[src], perm[dst]);
            rq.count = q.count;
            for (unsigned i = 0; i < q.count; ++i)
                rq.items[i] = mapMsg(q.items[i], perm);
        }
    }
    return r;
}

void
canonicalEncoding(const GlobalState &s, const ModelConfig &mc,
                  std::vector<std::uint8_t> &out,
                  std::array<std::uint8_t, max_nodes> *bestPerm)
{
    std::array<std::uint8_t, max_nodes> perm{};
    for (unsigned n = 0; n < max_nodes; ++n)
        perm[n] = static_cast<std::uint8_t>(n);
    if (bestPerm)
        *bestPerm = perm;

    // Two buffers: the best encoding so far and the candidate; the
    // loser of each comparison is overwritten next.
    std::uint8_t bufs[2][max_encoding_bytes];
    unsigned best = 0;
    std::size_t bestLen = encodeState(s, mc, bufs[best]);

    const unsigned first = mc.firstSymmetricNode();
    if (first + 1 < mc.numNodes) {
        while (std::next_permutation(perm.begin() + first,
                                     perm.begin() + mc.numNodes)) {
            const std::size_t len =
                encodeState(permuteNodes(s, mc, perm), mc, bufs[1 - best]);
            if (std::lexicographical_compare(
                    bufs[1 - best], bufs[1 - best] + len, bufs[best],
                    bufs[best] + bestLen)) {
                best = 1 - best;
                bestLen = len;
                if (bestPerm)
                    *bestPerm = perm;
            }
        }
    }
    out.assign(bufs[best], bufs[best] + bestLen);
}

void
canonicalEncoding(const GlobalState &s, const ModelConfig &mc,
                  std::vector<std::uint8_t> &out)
{
    canonicalEncoding(s, mc, out, nullptr);
}

} // namespace cosmos::model
