#include "model/stepper.hh"

#include "common/log.hh"

namespace cosmos::model
{

Stepper::Stepper(const ModelConfig &mc)
    : mc_(mc), cfg_(mc.machineConfig()),
      amap_(cfg_.blockBytes, cfg_.pageBytes, cfg_.numNodes),
      table_(proto::ProtocolTable::build(cfg_))
{
    mc_.validate();
    auto capture = [this](const proto::Msg &m) {
        captured_.push_back(m);
    };
    caches_.reserve(cfg_.numNodes);
    dirs_.reserve(cfg_.numNodes);
    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        caches_.push_back(std::make_unique<proto::CacheController>(
            n, amap_, cfg_, table_, eq_, capture));
        dirs_.push_back(std::make_unique<proto::DirectoryController>(
            n, amap_, cfg_, table_, eq_, capture));
    }
}

unsigned
Stepper::blockIdx(Addr block) const
{
    const unsigned b = static_cast<unsigned>(block / cfg_.pageBytes);
    cosmos_assert(b < mc_.numBlocks && mc_.blockAddr(b) == block,
                  "address 0x", std::hex, block,
                  " is not a modeled block");
    return b;
}

proto::Msg
Stepper::toMsg(const CompactMsg &m) const
{
    proto::Msg r;
    r.type = m.type;
    r.src = m.src;
    r.dst = m.dst;
    r.block = mc_.blockAddr(m.blockIdx);
    r.requester = m.requester == no_node ? invalid_node
                                         : NodeId{m.requester};
    r.forwarded = m.forwarded;
    r.wantWritable = m.wantWritable;
    return r;
}

CompactMsg
Stepper::fromMsg(const proto::Msg &m) const
{
    CompactMsg r;
    r.type = m.type;
    r.src = static_cast<std::uint8_t>(m.src);
    r.dst = static_cast<std::uint8_t>(m.dst);
    r.requester = m.requester == invalid_node
                      ? no_node
                      : static_cast<std::uint8_t>(m.requester);
    r.blockIdx = static_cast<std::uint8_t>(blockIdx(m.block));
    r.forwarded = m.forwarded;
    r.wantWritable = m.wantWritable;
    return r;
}

void
Stepper::restoreCache(NodeId n, const GlobalState &s)
{
    for (unsigned b = 0; b < mc_.numBlocks; ++b)
        caches_[n]->restoreLine(
            mc_.blockAddr(b), static_cast<proto::LineState>(s.line[n][b]));
    caches_[n]->setInvalResidue(s.invalResidue[n]);
}

void
Stepper::restoreDirectory(NodeId n, const GlobalState &s)
{
    proto::DirEntry e;
    for (unsigned b = 0; b < mc_.numBlocks; ++b) {
        if (mc_.home(b) != n)
            continue;
        const DirEntryState &es = s.dir[b];
        e.state = es.state;
        e.sharers = es.sharers;
        e.owner = es.owner == no_node ? invalid_node : NodeId{es.owner};
        e.busy = es.busy;
        e.pendingAcks = es.pendingAcks;
        e.genuineUpgrade = es.genuineUpgrade;
        e.recall = es.recall;
        e.fwdData = es.fwdData;
        e.fwdAckPending = es.fwdAckPending;
        e.current = toMsg(es.current);
        e.waiting.clear();
        for (unsigned i = 0; i < es.waiting.count; ++i)
            e.waiting.push_back(toMsg(es.waiting.items[i]));
        dirs_[n]->restoreEntry(mc_.blockAddr(b), e);
    }
}

const proto::DirEntry &
Stepper::entryOf(NodeId n, Addr block) const
{
    static const proto::DirEntry idle;
    const proto::DirEntry *e = dirs_[n]->findEntry(block);
    return e == nullptr ? idle : *e;
}

void
Stepper::load(const GlobalState &s)
{
    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        const std::uint32_t bit = 1u << n;
        if (!(cacheHeld_ & bit) || held_.line[n] != s.line[n] ||
            held_.invalResidue[n] != s.invalResidue[n]) {
            restoreCache(n, s);
            held_.line[n] = s.line[n];
            held_.invalResidue[n] = s.invalResidue[n];
        }
        bool dirSame = (dirHeld_ & bit) != 0;
        for (unsigned b = 0; b < mc_.numBlocks && dirSame; ++b)
            if (mc_.home(b) == n && !(held_.dir[b] == s.dir[b]))
                dirSame = false;
        if (!dirSame) {
            restoreDirectory(n, s);
            for (unsigned b = 0; b < mc_.numBlocks; ++b)
                if (mc_.home(b) == n)
                    held_.dir[b] = s.dir[b];
        }
    }
    const std::uint32_t all = (1u << cfg_.numNodes) - 1;
    cacheHeld_ = all;
    dirHeld_ = all;
    cacheTouched_ = 0;
    dirTouched_ = 0;
}

void
Stepper::readBack(GlobalState &out)
{
    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        const std::uint32_t bit = 1u << n;
        if (cacheTouched_ & bit) {
            for (unsigned b = 0; b < mc_.numBlocks; ++b)
                out.line[n][b] = static_cast<std::uint8_t>(
                    caches_[n]->state(mc_.blockAddr(b)));
            out.invalResidue[n] =
                static_cast<std::uint8_t>(caches_[n]->invalResidue());
            held_.line[n] = out.line[n];
            held_.invalResidue[n] = out.invalResidue[n];
        }
        if (!(dirTouched_ & bit))
            continue;

        for (unsigned b = 0; b < mc_.numBlocks; ++b) {
            if (mc_.home(b) != n)
                continue;
            const proto::DirEntry &live = entryOf(n, mc_.blockAddr(b));
            DirEntryState &e = out.dir[b];
            e = DirEntryState{};
            e.state = live.state;
            e.sharers = static_cast<std::uint8_t>(live.sharers);
            e.owner = live.owner == invalid_node
                          ? no_node
                          : static_cast<std::uint8_t>(live.owner);
            e.busy = live.busy;
            // Normalize fields that are only meaningful while the
            // entry is mid-transaction: the live controller leaves
            // the last transaction's request behind, and carrying it
            // into the encoding would split identical protocol
            // states.
            if (live.busy) {
                e.pendingAcks = static_cast<std::uint8_t>(live.pendingAcks);
                e.genuineUpgrade = live.genuineUpgrade;
                e.recall = live.recall;
                e.fwdData = live.fwdData;
                e.fwdAckPending = live.fwdAckPending;
                if (!live.recall)
                    e.current = fromMsg(live.current);
            }
            for (const proto::Msg &w : live.waiting)
                e.waiting.push(fromMsg(w));
            held_.dir[b] = e;
        }
    }
}

void
Stepper::drainInto(Sample &sample, std::vector<proto::Msg> &worklist,
                   GlobalState &work, NodeId handled)
{
    while (eq_.pending())
        eq_.runOne();
    for (const proto::Msg &m : captured_) {
        cosmos_assert(m.src == handled,
                      "message emitted by a module other than the "
                      "handled one: ",
                      m.format());
        sample.emissions = static_cast<std::uint16_t>(
            sample.emissions | (1u << static_cast<unsigned>(m.type)));
        if (m.src == m.dst)
            worklist.push_back(m);
        else
            work.channel(m.src, m.dst).push(fromMsg(m));
    }
    captured_.clear();
}

void
Stepper::runCascade(Result &out, std::vector<proto::Msg> &worklist,
                    GlobalState &work)
{
    std::size_t at = 0;
    while (at < worklist.size()) {
        const proto::Msg m = worklist[at++];
        Sample sample;
        sample.role = receiverRole(m.type);
        sample.input = static_cast<std::uint8_t>(m.type);
        if (sample.role == proto::Role::cache) {
            sample.pre = static_cast<std::uint8_t>(
                caches_[m.dst]->state(m.block));
            // The guard bits are exactly what the controller's own
            // dispatch derives (the forwarded mark and, for recalls,
            // the wanted copy kind -- message state, not cache state),
            // so each sample resolves to the row its dispatch
            // matched.
            sample.guard = proto::cacheMsgGuard(m);
            cacheTouched_ |= 1u << m.dst;
            caches_[m.dst]->handleMessage(m);
            drainInto(sample, worklist, work, m.dst);
            sample.post = static_cast<std::uint8_t>(
                caches_[m.dst]->state(m.block));
        } else {
            const proto::DirEntry &pre = entryOf(m.dst, m.block);
            sample.pre = static_cast<std::uint8_t>(proto::dirPhaseOf(pre));
            // Same single source of truth as the cache branch: the
            // guard predicates over the directory's hidden state (ack
            // counts, the genuineUpgrade latch, forward-in-flight
            // flags, the FIFO backlog) live in dirMsgGuard.
            sample.guard = proto::dirMsgGuard(pre, m.type, m.src);
            dirTouched_ |= 1u << m.dst;
            dirs_[m.dst]->handleMessage(m);
            drainInto(sample, worklist, work, m.dst);
            sample.post = static_cast<std::uint8_t>(
                proto::dirPhaseOf(entryOf(m.dst, m.block)));
        }
        out.samples.push_back(sample);
    }
    worklist.clear();
}

void
Stepper::step(const GlobalState &s, const Action &a, Result &out)
{
    out.failed = false;
    out.failureMsg.clear();
    out.samples.clear();

    load(s);
    captured_.clear();

    // Build the successor in place; the controllers no handler runs
    // on keep their slice of s.
    GlobalState &work = out.next;
    if (&work != &s)
        work = s;
    std::vector<proto::Msg> &worklist = worklist_;
    worklist.clear();

    FailureTrap trap;
    try {
        if (a.kind == Action::Kind::deliver) {
            const CompactMsg taken =
                work.channel(a.src, a.dst).takeAt(a.depth);
            cosmos_assert(taken == a.msg,
                          "deliver action does not match the channel "
                          "contents");
            worklist.push_back(toMsg(taken));
        } else {
            const bool write = a.kind == Action::Kind::issue_write;
            Sample sample;
            sample.role = proto::Role::cache;
            sample.input =
                write ? proto::input_proc_write : proto::input_proc_read;
            const Addr addr = mc_.blockAddr(a.blockIdx);
            sample.pre = static_cast<std::uint8_t>(
                caches_[a.node]->state(addr));
            cacheTouched_ |= 1u << a.node;
            caches_[a.node]->access(addr, write, []() {});
            drainInto(sample, worklist, work, a.node);
            sample.post = static_cast<std::uint8_t>(
                caches_[a.node]->state(addr));
            out.samples.push_back(sample);
        }
        runCascade(out, worklist, work);
        readBack(work);
    } catch (const RecoverableError &e) {
        out.failed = true;
        out.failureMsg = detail::concat(e.what(), " (", e.file(), ":",
                                        e.line(), ")");
        // The controllers are half-mutated: restore all of them
        // before the next step. Discard leftover scheduled events so
        // it starts from a clean queue; running them against
        // half-mutated controllers may fail again, which is fine --
        // they are being thrown away.
        cacheHeld_ = 0;
        dirHeld_ = 0;
        while (eq_.pending()) {
            try {
                eq_.runOne();
            } catch (const RecoverableError &) {
            }
        }
        captured_.clear();
    }
}

} // namespace cosmos::model
