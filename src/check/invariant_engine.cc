#include "check/invariant_engine.hh"

#include <algorithm>
#include <sstream>

#include "obs/trace_event.hh"

namespace cosmos::check
{

// The first three kinds are the coherence rules, in proto's order.
static_assert(static_cast<int>(ViolationKind::multiple_writers) ==
              static_cast<int>(proto::CoherenceRule::multiple_writers));
static_assert(static_cast<int>(ViolationKind::writer_and_readers) ==
              static_cast<int>(proto::CoherenceRule::writer_and_readers));
static_assert(static_cast<int>(ViolationKind::directory_mismatch) ==
              static_cast<int>(proto::CoherenceRule::directory_mismatch));

Violation
toViolation(proto::Breach b, Addr block, Tick when)
{
    Violation v;
    v.kind = static_cast<ViolationKind>(b.rule);
    v.block = block;
    v.nodes = std::move(b.nodes);
    v.when = when;
    v.detail = std::move(b.detail);
    return v;
}

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
    for (proto::Breach &b :
         proto::brokenRules(proto::blockView(machine_, block)))
        report(toViolation(std::move(b), block, when));
}

void
InvariantEngine::checkQuiescent()
{
    const Tick when = machine_.eventQueue().now();
    const NodeId n = machine_.numNodes();

    for (NodeId c = 0; c < n; ++c) {
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
            [&](Addr b, const proto::DirEntry &e) {
                if (e.busy) {
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

    for (const Addr b : proto::knownBlocks(machine_))
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
