#include "accel/online.hh"

namespace cosmos::accel
{

OnlineAccelerator::OnlineAccelerator(proto::Machine &machine,
                                     const OnlineOptions &options)
    : machine_(machine), options_(options),
      bank_(machine.numNodes(), options.predictor)
{
    machine_.addObserver(this);
    for (NodeId n = 0; n < machine_.numNodes(); ++n)
        machine_.directory(n).setSpeculation(this);
}

std::uint8_t &
OnlineAccelerator::confidence(NodeId dir, Addr block)
{
    const std::uint64_t key =
        (static_cast<std::uint64_t>(dir) << 48) | block;
    return confidence_.obtain(key);
}

bool
OnlineAccelerator::confident(NodeId dir, Addr block)
{
    if (options_.minConfidence == 0)
        return true;
    if (confidence(dir, block) >= options_.minConfidence)
        return true;
    ++stats_.gatedByConfidence;
    return false;
}

void
OnlineAccelerator::onMessage(const proto::Msg &m, proto::Role role,
                             int iteration, Tick when)
{
    (void)when;
    trace::TraceRecord r;
    r.block = m.block;
    r.receiver = m.dst;
    r.sender = m.src;
    r.type = m.type;
    r.role = role;
    r.iteration = iteration;

    if (role == proto::Role::directory && options_.minConfidence > 0) {
        // Track the block's recent streak before folding the message
        // into the predictor; only confident() reads it, and only
        // when a minimum is set.
        const auto before =
            bank_.predictor(m.dst, role).predict(m.block);
        std::uint8_t &conf = confidence(m.dst, m.block);
        if (before && before->sender == m.src &&
            before->type == m.type) {
            if (conf < 8)
                ++conf;
        } else {
            conf = 0;
        }
    }
    bank_.observe(r);

    if (!options_.enableVoluntaryRecall ||
        role != proto::Role::directory) {
        return;
    }

    // §4.2 trigger: right after any directory-side message for the
    // block, if the predicted next message is a read by a node other
    // than the current owner, pull the data home now.
    auto &dir = machine_.directory(m.dst);
    const auto prediction =
        bank_.predictor(m.dst, proto::Role::directory)
            .predict(m.block);
    if (!prediction ||
        prediction->type != proto::MsgType::get_ro_request) {
        return;
    }
    const NodeId owner = dir.owner(m.block);
    if (owner == invalid_node || owner == prediction->sender)
        return;
    if (!confident(m.dst, m.block))
        return;
    ++stats_.recallTriggers;
    if (dir.voluntaryRecall(m.block))
        ++stats_.recallsStarted;
}

bool
OnlineAccelerator::forwardOwnerTransfer(Addr block, NodeId owner,
                                        NodeId requester,
                                        bool wantWritable)
{
    (void)owner;
    (void)requester;
    (void)wantWritable;
    ++stats_.fwdQueries;
    // Delivery probes run before handlers, so the confidence streak
    // already includes the triggering request: it survived only if
    // the predictor anticipated that request -- sender (the
    // requester) and type both matched. A predictable block keeps
    // the three-hop fast path; an unpredictable one falls back to
    // the home reply, whose extra hop buys the directory a serialized
    // view of the hand-off.
    const NodeId home = machine_.addrMap().home(block);
    const bool fwd = confident(home, block);
    if (fwd)
        ++stats_.fwdGranted;
    return fwd;
}

bool
OnlineAccelerator::grantExclusiveOnRead(Addr block, NodeId requester)
{
    if (!options_.enableReplyExclusive)
        return false;
    ++stats_.rmwQueries;
    const NodeId home = machine_.addrMap().home(block);
    const auto prediction =
        bank_.predictor(home, proto::Role::directory).predict(block);
    const bool grant =
        prediction &&
        prediction->type == proto::MsgType::upgrade_request &&
        prediction->sender == requester &&
        confident(home, block);
    if (grant)
        ++stats_.rmwGrants;
    return grant;
}

} // namespace cosmos::accel
