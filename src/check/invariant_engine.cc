#include "check/invariant_engine.hh"

#include <algorithm>
#include <bit>
#include <set>
#include <sstream>

#include "obs/trace_event.hh"

namespace cosmos::check
{

namespace
{

std::vector<NodeId>
nodesOf(std::uint64_t mask)
{
    std::vector<NodeId> nodes;
    for (NodeId n = 0; mask != 0; ++n, mask >>= 1)
        if (mask & 1)
            nodes.push_back(n);
    return nodes;
}

std::vector<NodeId>
nodesOf(std::uint64_t a, std::uint64_t b)
{
    return nodesOf(a | b);
}

} // namespace

InvariantEngine::InvariantEngine(proto::Machine &machine,
                                 CheckOptions opts)
    : machine_(machine), opts_(opts), history_(opts.historyDepth)
{
    machine_.setDeliveryProbe(
        [this](const proto::Msg &m, bool, Tick when) {
            onDelivered(m, when);
        });
}

InvariantEngine::~InvariantEngine()
{
    machine_.setDeliveryProbe(nullptr);
}

std::vector<std::string>
InvariantEngine::historySnapshot() const
{
    const std::size_t depth = history_.size();
    const std::size_t held =
        static_cast<std::size_t>(std::min<std::uint64_t>(delivered_, depth));
    std::vector<std::string> lines;
    lines.reserve(held);
    for (std::size_t i = depth - held; i < depth; ++i) {
        const Delivery &d = history_[(historyNext_ + i) % depth];
        lines.push_back("t=" + std::to_string(d.when) + " " +
                        d.msg.format());
    }
    return lines;
}

void
InvariantEngine::report(Violation v)
{
    if (violations_.size() >= opts_.maxViolations) {
        ++suppressed_;
        return;
    }
    v.history = historySnapshot();
    {
        // A zero-length span marks the violation on the timeline.
        const obs::Span mark("check.violation", "block", v.block);
    }
    violations_.push_back(std::move(v));
}

void
InvariantEngine::noteFailure(const RecoverableError &e)
{
    Violation v;
    v.kind = ViolationKind::assertion;
    v.when = machine_.eventQueue().now();
    std::ostringstream os;
    os << e.what() << " (" << e.file() << ":" << e.line() << ")";
    v.detail = os.str();
    report(std::move(v));
}

void
InvariantEngine::onDelivered(const proto::Msg &m, Tick when)
{
    ++delivered_;
    if (!history_.empty()) {
        history_[historyNext_] = {when, m};
        if (++historyNext_ == history_.size())
            historyNext_ = 0;
    }

    // Message conservation: per block, every delivered response must
    // answer a previously delivered request. fwd_ack is exempt: it
    // answers no request -- it is the requester's receipt for the
    // forwarded data response, closing a handshake the request
    // counter does not model.
    if (m.type == proto::MsgType::fwd_ack) {
        if (opts_.perMessage)
            checkBlock(m.block, when);
        if ((delivered_ & 1023) == 0)
            scanPendingWindows(when);
        return;
    }
    auto it = flights_.try_emplace(m.block).first;
    Flight &f = it->second;
    if (proto::isRequest(m.type)) {
        if (f.outstanding == 0) {
            f.since = when;
            f.reportedStuck = false;
        }
        ++f.outstanding;
    } else {
        --f.outstanding;
        if (f.outstanding < 0) {
            Violation v;
            v.kind = ViolationKind::conservation;
            v.block = m.block;
            v.nodes = {m.src, m.dst};
            v.when = when;
            v.detail = std::string("response ") +
                       proto::toString(m.type) +
                       " delivered with no outstanding request for "
                       "the block";
            report(std::move(v));
            f.outstanding = 0;
        }
        if (f.outstanding == 0)
            flights_.erase(it);
    }

    if (opts_.perMessage)
        checkBlock(m.block, when);

    // Amortized liveness scan: stuck transactions produce no further
    // deliveries of their own, so piggyback on overall progress.
    if ((delivered_ & 1023) == 0)
        scanPendingWindows(when);
}

void
InvariantEngine::scanPendingWindows(Tick when)
{
    for (auto &[block, f] : flights_) {
        if (f.outstanding > 0 && !f.reportedStuck &&
            when > f.since && when - f.since > opts_.maxPendingWindow) {
            f.reportedStuck = true;
            Violation v;
            v.kind = ViolationKind::liveness;
            v.block = block;
            v.when = when;
            std::ostringstream os;
            os << f.outstanding << " request(s) outstanding since t="
               << f.since << " (window " << opts_.maxPendingWindow
               << " ticks exceeded)";
            v.detail = os.str();
            report(std::move(v));
        }
    }
}

void
InvariantEngine::checkBlock(Addr block, Tick when)
{
    using proto::DirState;
    using proto::LineState;

    std::uint64_t ro = 0;
    std::uint64_t rw = 0;
    bool transient = false;
    const NodeId n = machine_.numNodes();
    for (NodeId c = 0; c < n; ++c) {
        switch (machine_.cache(c).state(block)) {
          case LineState::invalid:
            break;
          case LineState::read_only:
            ro |= std::uint64_t{1} << c;
            break;
          case LineState::read_write:
            rw |= std::uint64_t{1} << c;
            break;
          default:
            transient = true;
            break;
        }
    }

    // SWMR holds at *every* delivery point: exclusivity is only
    // granted after all invalidation acks, so two quiescent writable
    // copies -- or a writable copy next to readable ones -- are a
    // protocol bug no matter what is in flight.
    if (std::popcount(rw) > 1) {
        Violation v;
        v.kind = ViolationKind::multiple_writers;
        v.block = block;
        v.nodes = nodesOf(rw);
        v.when = when;
        v.detail = "more than one cache holds the block read_write";
        report(std::move(v));
    }
    if (rw != 0 && ro != 0) {
        Violation v;
        v.kind = ViolationKind::writer_and_readers;
        v.block = block;
        v.nodes = nodesOf(rw, ro);
        v.when = when;
        std::ostringstream os;
        os << "writer node " << nodesOf(rw).front()
           << " coexists with " << std::popcount(ro)
           << " read_only cop" << (std::popcount(ro) == 1 ? "y" : "ies");
        v.detail = os.str();
        report(std::move(v));
    }

    // Directory agreement only makes sense once the block is outside
    // any transaction: skip mid-flight states exactly like the
    // quiescent checker in proto/invariants.
    if (transient)
        return;
    const NodeId home = machine_.addrMap().home(block);
    const auto &dir = machine_.directory(home);
    if (dir.busy(block))
        return;

    const DirState ds = dir.state(block);
    const std::uint64_t sharers = dir.sharers(block);
    const NodeId owner = dir.owner(block);
    const bool replacement = machine_.config().cacheCapacityBlocks != 0;

    Violation v;
    v.kind = ViolationKind::directory_mismatch;
    v.block = block;
    v.when = when;
    switch (ds) {
      case DirState::idle:
        if (ro == 0 && rw == 0)
            return;
        v.nodes = nodesOf(ro, rw);
        v.detail = "directory says idle but the block is cached";
        break;
      case DirState::shared:
        if (rw != 0) {
            v.nodes = nodesOf(rw);
            v.detail = "directory says shared but a cache holds the "
                       "block read_write";
        } else if (replacement ? (ro & ~sharers) != 0
                               : ro != sharers) {
            // Silent drops make the sharer list a superset of the
            // real holders; without replacement it must be exact. So
            // under replacement only an unlisted holder is a culprit.
            v.nodes = nodesOf(replacement ? ro & ~sharers : ro ^ sharers);
            std::ostringstream os;
            os << "sharer bits 0x" << std::hex << sharers
               << " disagree with read_only holders 0x" << ro;
            v.detail = os.str();
        } else {
            return;
        }
        break;
      case DirState::exclusive:
        if (rw != (std::uint64_t{1} << owner)) {
            v.nodes = nodesOf(rw | (std::uint64_t{1} << owner));
            std::ostringstream os;
            os << "directory owner is node " << owner
               << " but read_write holders are 0x" << std::hex << rw;
            v.detail = os.str();
        } else if (ro != 0) {
            v.nodes = nodesOf(ro);
            v.detail = "directory says exclusive but read_only "
                       "copies exist";
        } else {
            return;
        }
        break;
    }
    report(std::move(v));
}

void
InvariantEngine::checkQuiescent()
{
    const Tick when = machine_.eventQueue().now();
    const NodeId n = machine_.numNodes();

    // Union of every block anyone still knows about.
    std::set<Addr> blocks;
    for (NodeId c = 0; c < n; ++c) {
        machine_.cache(c).forEachLine(
            [&](Addr b, proto::LineState) { blocks.insert(b); });
        if (machine_.cache(c).busy()) {
            Violation v;
            v.kind = ViolationKind::liveness;
            v.nodes = {c};
            v.when = when;
            std::ostringstream os;
            os << machine_.cache(c).outstanding()
               << " cache miss(es) still outstanding at quiescence";
            v.detail = os.str();
            report(std::move(v));
        }
    }
    for (NodeId d = 0; d < n; ++d) {
        machine_.directory(d).forEachEntry(
            [&](Addr b, proto::DirState, std::uint64_t, NodeId) {
                blocks.insert(b);
                if (machine_.directory(d).busy(b)) {
                    Violation v;
                    v.kind = ViolationKind::liveness;
                    v.block = b;
                    v.nodes = {d};
                    v.when = when;
                    v.detail = "directory entry still busy at "
                               "quiescence";
                    report(std::move(v));
                }
            });
    }

    for (Addr b : blocks)
        checkBlock(b, when);

    for (const auto &[block, f] : flights_) {
        if (f.outstanding == 0)
            continue;
        Violation v;
        v.kind = ViolationKind::conservation;
        v.block = block;
        v.when = when;
        std::ostringstream os;
        os << f.outstanding
           << " request(s) never answered (outstanding since t="
           << f.since << ")";
        v.detail = os.str();
        report(std::move(v));
    }
}

} // namespace cosmos::check
